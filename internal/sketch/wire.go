package sketch

import (
	"encoding/binary"
	"fmt"
	"slices"

	"critics/internal/core"
)

// Wire format (version 1). All integers are unsigned LEB128 varints; every
// list is length-prefixed and canonically ordered, so a sketch has exactly
// one encoding and Encode(Decode(b)) == b for every accepted b — the
// property the fuzz target and the byte-identity determinism tests rely on.
//
//	magic   "CSK" 0x01                      (4 bytes)
//	app     uvarint len (≤ MaxAppName), bytes
//	total   uvarint TotalDyn
//	cm      Depth×Width uvarints, row-major
//	fanout  FanoutBuckets uvarints
//	stall   StallStages uvarints
//	devices uvarint count (≤ KMVSize), first value + positive deltas
//	keys    uvarint count (≤ fleet key-universe bound), each:
//	          func uvarint (≤ 0xFFFF)
//	          block uvarint (≤ 0xFFFF)
//	          n uvarint (2..core.MaxChainLen)
//	          n index bytes
//	          count uvarint (> 0)
//	          fanoutMilli uvarint
//	          thumb byte (0|1)
//	        keys strictly increasing in core.LessKey order
//
// Decode is strict: wrong magic/version, over-bound lengths, non-canonical
// ordering, zero counts and trailing bytes are all errors. Strictness is
// what keeps the coordinator's memory bounded under hostile or corrupted
// input — a sketch either is the canonical form or it is refused.

// Version is the wire format version byte.
const Version = 1

// magic prefixes every encoded sketch.
var magic = [4]byte{'C', 'S', 'K', Version}

// maxWireKeys bounds the decoded key list. Merged consensus sketches exceed
// MaxTrackedKeys (union over devices), so the wire accepts more than a
// device may build, but stays bounded.
const maxWireKeys = 64 * MaxTrackedKeys

// Encode returns the canonical binary form.
func (s *Sketch) Encode() []byte {
	buf := make([]byte, 0, 4+len(s.App)+Depth*Width+16*len(s.Keys)+10*len(s.Devices)+64)
	buf = append(buf, magic[:]...)
	buf = binary.AppendUvarint(buf, uint64(len(s.App)))
	buf = append(buf, s.App...)
	buf = binary.AppendUvarint(buf, s.TotalDyn)
	for r := 0; r < Depth; r++ {
		for i := 0; i < Width; i++ {
			buf = binary.AppendUvarint(buf, s.CM[r][i])
		}
	}
	for _, n := range s.Fanout {
		buf = binary.AppendUvarint(buf, n)
	}
	for _, n := range s.Stall {
		buf = binary.AppendUvarint(buf, n)
	}
	buf = binary.AppendUvarint(buf, uint64(len(s.Devices)))
	prev := uint64(0)
	for i, h := range s.Devices {
		if i == 0 {
			buf = binary.AppendUvarint(buf, h)
		} else {
			buf = binary.AppendUvarint(buf, h-prev)
		}
		prev = h
	}
	buf = binary.AppendUvarint(buf, uint64(len(s.Keys)))
	for i := range s.Keys {
		st := &s.Keys[i]
		buf = binary.AppendUvarint(buf, uint64(st.Key.Func))
		buf = binary.AppendUvarint(buf, uint64(st.Key.Block))
		buf = binary.AppendUvarint(buf, uint64(st.Key.N))
		buf = append(buf, st.Key.Idx[:st.Key.N]...)
		buf = binary.AppendUvarint(buf, st.Count)
		buf = binary.AppendUvarint(buf, st.FanoutMilli)
		if st.ThumbOK {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	return buf
}

// decoder walks an encoded sketch with bounds checking.
type decoder struct {
	b   []byte
	pos int
}

// uvarint reads one canonical varint. binary.Uvarint also accepts padded
// forms, a multi-byte varint whose final byte is zero; Encode never writes
// one, and accepting it would give one sketch two encodings (and the
// archive two digests for it), so it is refused.
func (d *decoder) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(d.b[d.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("sketch: truncated or overlong varint (%s) at offset %d", what, d.pos)
	}
	if n > 1 && d.b[d.pos+n-1] == 0 {
		return 0, fmt.Errorf("sketch: non-canonical %d-byte varint (%s) at offset %d", n, what, d.pos)
	}
	d.pos += n
	return v, nil
}

func (d *decoder) bytes(n int, what string) ([]byte, error) {
	if n < 0 || d.pos+n > len(d.b) {
		return nil, fmt.Errorf("sketch: truncated %s at offset %d", what, d.pos)
	}
	out := d.b[d.pos : d.pos+n]
	d.pos += n
	return out, nil
}

// Decode parses and validates one canonical sketch into a new Sketch.
func Decode(b []byte) (*Sketch, error) {
	s := &Sketch{}
	if err := s.UnmarshalBinary(b); err != nil {
		return nil, err
	}
	return s, nil
}

// UnmarshalBinary parses and validates one canonical sketch into s,
// replacing everything s held. It reuses the capacity of s's Keys and
// Devices and overwrites the count-min array in place, so decoding into a
// sketch that held one of similar size allocates nothing. After an error s
// holds a partial decode: decode into it again before any other use.
func (s *Sketch) UnmarshalBinary(b []byte) error {
	if len(b) < 4 || [4]byte(b[:4]) != magic {
		if len(b) >= 4 && b[0] == 'C' && b[1] == 'S' && b[2] == 'K' {
			return fmt.Errorf("sketch: unsupported wire version %d (want %d)", b[3], Version)
		}
		return fmt.Errorf("sketch: bad magic")
	}
	d := decoder{b: b, pos: 4}

	n, err := d.uvarint("app length")
	if err != nil {
		return err
	}
	if n > MaxAppName {
		return fmt.Errorf("sketch: app name length %d exceeds %d", n, MaxAppName)
	}
	app, err := d.bytes(int(n), "app name")
	if err != nil {
		return err
	}
	if s.App != string(app) { // a recycled sketch mostly keeps its app
		s.App = string(app)
	}

	if s.TotalDyn, err = d.uvarint("total_dyn"); err != nil {
		return err
	}
	for r := range s.CM {
		row := &s.CM[r]
		for i := range row {
			// Most cells are small: one byte, no continuation bit.
			if p := d.pos; p < len(b) && b[p] < 0x80 {
				row[i], d.pos = uint64(b[p]), p+1
				continue
			}
			if row[i], err = d.uvarint("cm cell"); err != nil {
				return err
			}
		}
	}
	for i := range s.Fanout {
		if s.Fanout[i], err = d.uvarint("fanout bucket"); err != nil {
			return err
		}
	}
	for i := range s.Stall {
		if s.Stall[i], err = d.uvarint("stall stage"); err != nil {
			return err
		}
	}

	nd, err := d.uvarint("device count")
	if err != nil {
		return err
	}
	if nd > KMVSize {
		return fmt.Errorf("sketch: %d device hashes exceed bottom-k bound %d", nd, KMVSize)
	}
	s.Devices = slices.Grow(s.Devices[:0], int(nd))
	prev := uint64(0)
	for i := uint64(0); i < nd; i++ {
		v, err := d.uvarint("device hash")
		if err != nil {
			return err
		}
		if i > 0 {
			if v == 0 {
				return fmt.Errorf("sketch: device hashes not strictly ascending")
			}
			next := prev + v
			if next < prev {
				return fmt.Errorf("sketch: device hash delta overflows")
			}
			v = next
		}
		s.Devices = append(s.Devices, v)
		prev = v
	}

	nk, err := d.uvarint("key count")
	if err != nil {
		return err
	}
	if nk > maxWireKeys {
		return fmt.Errorf("sketch: %d keys exceed wire bound %d", nk, maxWireKeys)
	}
	s.Keys = slices.Grow(s.Keys[:0], int(min(nk, 1024)))
	var prevKey core.ChainKey
	for i := uint64(0); i < nk; i++ {
		var st KeyStat
		fn, err := d.uvarint("key func")
		if err != nil {
			return err
		}
		bl, err := d.uvarint("key block")
		if err != nil {
			return err
		}
		ln, err := d.uvarint("key length")
		if err != nil {
			return err
		}
		if fn > 0xFFFF || bl > 0xFFFF {
			return fmt.Errorf("sketch: key func/block out of range")
		}
		if ln < 2 || ln > core.MaxChainLen {
			return fmt.Errorf("sketch: chain length %d out of range [2,%d]", ln, core.MaxChainLen)
		}
		st.Key.Func, st.Key.Block, st.Key.N = uint16(fn), uint16(bl), uint8(ln)
		idx, err := d.bytes(int(ln), "key indices")
		if err != nil {
			return err
		}
		copy(st.Key.Idx[:], idx)
		if st.Count, err = d.uvarint("key count value"); err != nil {
			return err
		}
		if st.Count == 0 {
			return fmt.Errorf("sketch: zero-count key (non-canonical)")
		}
		if st.FanoutMilli, err = d.uvarint("key fanout"); err != nil {
			return err
		}
		tb, err := d.bytes(1, "thumb flag")
		if err != nil {
			return err
		}
		if tb[0] > 1 {
			return fmt.Errorf("sketch: thumb flag %d not 0|1", tb[0])
		}
		st.ThumbOK = tb[0] == 1
		if i > 0 && !core.LessKey(prevKey, st.Key) {
			return fmt.Errorf("sketch: keys not strictly ascending at index %d", i)
		}
		prevKey = st.Key
		s.Keys = append(s.Keys, st)
	}

	if d.pos != len(b) {
		return fmt.Errorf("sketch: %d trailing bytes after sketch", len(b)-d.pos)
	}
	return nil
}
