package scan

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// The scan trace format is a chunked address stream: a magic/version header,
// a chunk count, then per chunk a count and that many zig-zag-varint address
// deltas. Deltas reset at every chunk boundary so chunks decode (and score)
// independently — the property fleet dispatch relies on. Varint deltas make
// the common case (sequential fetch: delta 4 or 2) one byte per dynamic
// instruction.
const (
	traceMagic   = "CTRC"
	traceVersion = 1

	// maxChunks and maxChunkLen bound what a reader will allocate for a
	// declared count before seeing the bytes behind it — adversarial headers
	// (fuzzed or truncated uploads) fail instead of ballooning memory.
	maxChunks   = 1 << 20
	maxChunkLen = 1 << 20
)

func zigzag(v int64) uint64 { return uint64((v << 1) ^ (v >> 63)) }
func unzig(u uint64) int64  { return int64(u>>1) ^ -int64(u&1) }

// WriteTrace encodes addrs into the chunked trace format, chunkSize dynamic
// instructions per chunk (<= 0 means DefaultChunk).
func WriteTrace(w io.Writer, addrs []uint32, chunkSize int) error {
	if chunkSize <= 0 {
		chunkSize = DefaultChunk
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(traceMagic); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := bw.WriteByte(traceVersion); err != nil {
		return err
	}
	chunks := (len(addrs) + chunkSize - 1) / chunkSize
	if err := putUvarint(uint64(chunks)); err != nil {
		return err
	}
	for start := 0; start < len(addrs); start += chunkSize {
		end := start + chunkSize
		if end > len(addrs) {
			end = len(addrs)
		}
		chunk := addrs[start:end]
		if err := putUvarint(uint64(len(chunk))); err != nil {
			return err
		}
		prev := uint32(0)
		for _, a := range chunk {
			if err := putUvarint(zigzag(int64(a) - int64(prev))); err != nil {
				return err
			}
			prev = a
		}
	}
	return bw.Flush()
}

// TraceBytes is WriteTrace into memory — the convenience path for clients
// assembling an upload.
func TraceBytes(addrs []uint32, chunkSize int) []byte {
	var b writerBuf
	_ = WriteTrace(&b, addrs, chunkSize) // in-memory writes cannot fail
	return b.data
}

type writerBuf struct{ data []byte }

func (b *writerBuf) Write(p []byte) (int, error) {
	b.data = append(b.data, p...)
	return len(p), nil
}

// TraceReader streams trace chunks back out. Allocation is bounded against
// the declared counts' caps and grown against bytes actually read, so a
// hostile header cannot make it balloon.
type TraceReader struct {
	br     *bufio.Reader
	chunks int
	next   int
}

// NewTraceReader validates the header and positions the reader at chunk 0.
func NewTraceReader(r io.Reader) (*TraceReader, error) {
	br := bufio.NewReader(r)
	var magic [5]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("scan: trace header: %w", err)
	}
	if string(magic[:4]) != traceMagic {
		return nil, fmt.Errorf("scan: bad trace magic %q", magic[:4])
	}
	if magic[4] != traceVersion {
		return nil, fmt.Errorf("scan: unsupported trace version %d", magic[4])
	}
	chunks, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("scan: trace chunk count: %w", err)
	}
	if chunks > maxChunks {
		return nil, fmt.Errorf("scan: trace declares %d chunks (max %d)", chunks, maxChunks)
	}
	return &TraceReader{br: br, chunks: int(chunks)}, nil
}

// Chunks returns the declared chunk count.
func (t *TraceReader) Chunks() int { return t.chunks }

// Next returns the next chunk's index and decoded addresses, io.EOF after
// the last declared chunk.
func (t *TraceReader) Next() (int, []uint32, error) {
	if t.next >= t.chunks {
		return 0, nil, io.EOF
	}
	ci := t.next
	t.next++
	count, err := binary.ReadUvarint(t.br)
	if err != nil {
		return 0, nil, fmt.Errorf("scan: trace chunk %d count: %w", ci, err)
	}
	if count > maxChunkLen {
		return 0, nil, fmt.Errorf("scan: trace chunk %d declares %d addresses (max %d)", ci, count, maxChunkLen)
	}
	capHint := count
	if capHint > 4096 {
		capHint = 4096 // grow against bytes read, not the declared count
	}
	addrs := make([]uint32, 0, capHint)
	prev := int64(0)
	for i := uint64(0); i < count; i++ {
		u, err := binary.ReadUvarint(t.br)
		if err != nil {
			return 0, nil, fmt.Errorf("scan: trace chunk %d truncated: %w", ci, err)
		}
		a := prev + unzig(u)
		if a < 0 || a > int64(^uint32(0)) {
			return 0, nil, fmt.Errorf("scan: trace chunk %d address out of range", ci)
		}
		addrs = append(addrs, uint32(a))
		prev = a
	}
	return ci, addrs, nil
}
