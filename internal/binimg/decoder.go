package binimg

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"critics/internal/encoding"
	"critics/internal/isa"
)

// Decoder walks a binary image as a stream, reproducing the ARM decoder's
// format state machine (32-bit words by default, 16-bit for CDP-counted runs
// and Approach-1 exchange regions) in bounded memory: it holds a small peek
// buffer, never the image. This is what lets the scan service decode
// multi-MB uploaded images straight off the artifact store without
// buffering them.
//
// Errors are sticky: after Next returns a non-nil error (including io.EOF at
// the clean end of the image), every later call returns the same error.
type Decoder struct {
	br  *bufio.Reader
	off uint32

	thumbLeft      int  // CDP-counted run remaining
	thumbUntilExit bool // Approach-1: thumb until a 16-bit branch

	err error
}

// NewDecoder returns a streaming decoder over r, which must deliver the
// image bytes from offset 0.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{br: bufio.NewReader(r)}
}

// Offset returns the image offset the next element will be decoded at.
func (d *Decoder) Offset() uint32 { return d.off }

// Next returns the next decoded element (padding skipped), io.EOF at the
// clean end of the image, or a decode error pinned to its offset.
func (d *Decoder) Next() (Decoded, error) {
	if d.err != nil {
		return Decoded{}, d.err
	}
	dec, err := d.next()
	if err != nil {
		d.err = err
	}
	return dec, err
}

// advance consumes n already-peeked bytes.
func (d *Decoder) advance(n int) {
	d.br.Discard(n)
	d.off += uint32(n)
}

func (d *Decoder) next() (Decoded, error) {
	for {
		buf, err := d.br.Peek(4)
		off := d.off
		if err != nil && err != io.EOF && err != bufio.ErrBufferFull {
			// A failing source — e.g. an artifact reader whose content
			// failed digest verification at EOF — fails the walk: the bytes
			// already decoded cannot be trusted either.
			return Decoded{}, fmt.Errorf("binimg: reading at %#x: %w", off, err)
		}
		if len(buf) == 0 {
			return Decoded{}, io.EOF
		}
		if d.thumbLeft > 0 || d.thumbUntilExit {
			if len(buf) < 2 {
				return Decoded{}, fmt.Errorf("binimg: truncated halfword at %#x", off)
			}
			hw := binary.LittleEndian.Uint16(buf)
			in, err := encoding.DecodeT16(hw)
			if err != nil {
				return Decoded{}, fmt.Errorf("binimg: at %#x: %w", off, err)
			}
			d.advance(2)
			if d.thumbLeft > 0 {
				d.thumbLeft--
			} else if in.Op == isa.OpB && in.Cond == isa.CondAL {
				// The 16-bit exchange branch ends the run.
				d.thumbUntilExit = false
			}
			return Decoded{Addr: off, Inst: in, Thumb: true}, nil
		}
		// 32-bit mode. A CDP command may sit at any halfword boundary
		// (long converted runs chain CDPs back to back).
		if len(buf) >= 2 {
			hw := binary.LittleEndian.Uint16(buf)
			if encoding.IsCDP(hw) {
				cdp, err := encoding.DecodeCDP(hw)
				if err != nil {
					return Decoded{}, err
				}
				d.advance(2)
				d.thumbLeft = cdp.Count
				return Decoded{
					Addr:  off,
					Inst:  isa.Inst{Op: isa.OpCDP, Rd: isa.NoReg, Rn: isa.NoReg, Rm: isa.NoReg},
					Thumb: true, IsCDP: true, CDPCount: cdp.Count,
				}, nil
			}
		}
		// A halfword-aligned position that is not a CDP is alignment
		// padding after a Thumb run.
		if off%4 == 2 {
			if len(buf) < 2 {
				// Image ends mid-halfword here: a sub-word tail, which must
				// be zero padding like any other trailing pad.
				if buf[0] != 0 {
					return Decoded{}, fmt.Errorf("binimg: trailing garbage at %#x", off)
				}
				d.advance(1)
				continue
			}
			if binary.LittleEndian.Uint16(buf) != 0 {
				return Decoded{}, fmt.Errorf("binimg: expected pad halfword at %#x", off)
			}
			d.advance(2)
			continue
		}
		if len(buf) < 4 {
			// Trailing pad shorter than a word.
			for _, b := range buf {
				if b != 0 {
					return Decoded{}, fmt.Errorf("binimg: trailing garbage at %#x", off)
				}
			}
			d.advance(len(buf))
			continue
		}
		w := binary.LittleEndian.Uint32(buf)
		if w == 0 {
			d.advance(4) // alignment padding between functions
			continue
		}
		in, err := encoding.DecodeA32(w)
		if err != nil {
			return Decoded{}, fmt.Errorf("binimg: at %#x: %w", off, err)
		}
		d.advance(4)
		if in.Op == isa.OpB && in.Cond == isa.CondAL && w&exchangeBit != 0 {
			d.thumbUntilExit = true
		}
		return Decoded{Addr: off, Inst: in}, nil
	}
}
