package trace

// DefaultChunk is the default chunk size of streaming Sources. Large enough
// that per-chunk overheads vanish against per-instruction work, small enough
// that a pipeline stage's working set stays cache- and memory-friendly.
const DefaultChunk = 4096

// Source is a chunked pull iterator over a dynamic instruction stream — the
// streaming alternative to materializing a whole window with Generate or
// GenerateArch. Consumers that can process the stream incrementally (fanout
// analysis, the cycle model, chain extraction) run in O(chunk) memory
// regardless of window length.
//
// NextChunk returns the next contiguous chunk of the stream; an empty return
// means the stream is exhausted. The returned slice is only valid until the
// next NextChunk call — consumers that need data across calls must copy.
// Chunks are contiguous in the underlying stream: Seq values never skip, so
// the distance between two instructions in the stream equals the difference
// of their Seq fields.
type Source interface {
	NextChunk() []Dyn
}

// GenSource streams the next n architectural instructions from a Generator
// in chunks, emitting exactly the dynamic stream GenerateArch(nil, n) would
// materialize (overhead instructions ride along uncounted, and the stream
// ends right after the n-th architectural instruction). The chunk buffer is
// reused across NextChunk calls.
type GenSource struct {
	g         *Generator
	remaining int // architectural instructions still to emit
	buf       []Dyn
}

// NewGenSource returns a GenSource emitting the next archInstrs architectural
// instructions from g in chunks of the given size (DefaultChunk if <= 0).
func NewGenSource(g *Generator, archInstrs, chunk int) *GenSource {
	s := &GenSource{}
	s.Reset(g, archInstrs, chunk)
	return s
}

// Reset rebinds the source to a generator and budget, reusing the chunk
// buffer. A zero chunk keeps the current buffer capacity (or DefaultChunk).
func (s *GenSource) Reset(g *Generator, archInstrs, chunk int) {
	if chunk <= 0 {
		chunk = cap(s.buf)
		if chunk == 0 {
			chunk = DefaultChunk
		}
	}
	if cap(s.buf) < chunk {
		s.buf = make([]Dyn, 0, chunk)
	}
	s.g = g
	s.remaining = archInstrs
	s.buf = s.buf[:0:chunk]
}

// NextChunk implements Source.
func (s *GenSource) NextChunk() []Dyn {
	if s.remaining <= 0 {
		return nil
	}
	buf := s.buf[:cap(s.buf)]
	n := 0
	for n < len(buf) && s.remaining > 0 {
		d := &buf[n]
		s.g.stepInto(d)
		if !d.Overhead {
			s.remaining--
		}
		n++
	}
	s.buf = buf[:n]
	return s.buf
}

// SliceSource adapts an in-memory slice to the Source interface, yielding
// sub-slices of the given chunk size. It is the fixture half of the
// streaming-vs-materialized equivalence tests: the same dyn slice can be fed
// to the slice-based APIs and, via SliceSource, to the streaming ones.
type SliceSource struct {
	dyns  []Dyn
	chunk int
	off   int
}

// NewSliceSource returns a SliceSource over dyns with the given chunk size
// (DefaultChunk if <= 0).
func NewSliceSource(dyns []Dyn, chunk int) *SliceSource {
	if chunk <= 0 {
		chunk = DefaultChunk
	}
	return &SliceSource{dyns: dyns, chunk: chunk}
}

// NextChunk implements Source.
func (s *SliceSource) NextChunk() []Dyn {
	if s.off >= len(s.dyns) {
		return nil
	}
	end := s.off + s.chunk
	if end > len(s.dyns) {
		end = len(s.dyns)
	}
	out := s.dyns[s.off:end]
	s.off = end
	return out
}
