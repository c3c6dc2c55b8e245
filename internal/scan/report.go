package scan

import (
	"fmt"
	"sort"
	"strings"
)

// Opportunity is one missed CritIC: a chain the CritIC pass would have
// hoisted and converted had it compiled this binary from source.
type Opportunity struct {
	Chunk          int    `json:"chunk"`
	HeadAddr       uint32 `json:"head_addr"`
	Len            int    `json:"len"`
	AvgFanoutMilli int64  `json:"avg_fanout_milli"` // average fanout × 1000
	SumFanout      int64  `json:"sum_fanout"`
	SavedBytes     int64  `json:"saved_bytes"` // fetch bytes a conversion saves per execution
}

// ChunkResult is one trace chunk's score — the unit of fleet dispatch.
type ChunkResult struct {
	Chunk         int           `json:"chunk"`
	Instrs        int           `json:"instrs"`
	Unknown       int           `json:"unknown"`
	FetchBytes    int64         `json:"fetch_bytes"`
	Opportunities []Opportunity `json:"opportunities,omitempty"`
}

// Report is the merged scan result. All scores are integers (milli/ppm
// fixed-point) so the rendered report is byte-stable across platforms and
// across local-vs-distributed execution.
type Report struct {
	ImageDigest string `json:"image_digest"`
	TraceDigest string `json:"trace_digest"`

	ImageInstrs int `json:"image_instrs"` // static instructions decoded
	ImageThumb  int `json:"image_thumb"`
	ImageCDPs   int `json:"image_cdps"`

	Chunks     int   `json:"chunks"`
	Instrs     int64 `json:"instrs"` // dynamic instructions scored
	Unknown    int64 `json:"unknown"`
	FetchBytes int64 `json:"fetch_bytes"`

	Opportunities []Opportunity `json:"opportunities,omitempty"` // ranked
	SavedBytes    int64         `json:"saved_bytes"`
	SpeedupPPM    int64         `json:"speedup_ppm"` // est. fetch-byte reduction, parts per million
}

// Merge folds per-chunk results into the ranked report. Results may arrive
// in any order (fleet completion order is nondeterministic); merging sorts
// by chunk index first, so the outcome depends only on the result set.
func Merge(imageDigest, traceDigest string, idx *Index, results []ChunkResult) *Report {
	sorted := append([]ChunkResult(nil), results...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Chunk < sorted[j].Chunk })
	r := &Report{
		ImageDigest: imageDigest,
		TraceDigest: traceDigest,
		Chunks:      len(sorted),
	}
	if idx != nil {
		r.ImageInstrs = idx.Instrs
		r.ImageThumb = idx.ThumbInstrs
		r.ImageCDPs = idx.CDPs
	}
	for _, cr := range sorted {
		r.Instrs += int64(cr.Instrs)
		r.Unknown += int64(cr.Unknown)
		r.FetchBytes += cr.FetchBytes
		r.Opportunities = append(r.Opportunities, cr.Opportunities...)
	}
	sort.Slice(r.Opportunities, func(i, j int) bool {
		a, b := r.Opportunities[i], r.Opportunities[j]
		if a.AvgFanoutMilli != b.AvgFanoutMilli {
			return a.AvgFanoutMilli > b.AvgFanoutMilli
		}
		if a.SavedBytes != b.SavedBytes {
			return a.SavedBytes > b.SavedBytes
		}
		if a.Chunk != b.Chunk {
			return a.Chunk < b.Chunk
		}
		return a.HeadAddr < b.HeadAddr
	})
	for _, op := range r.Opportunities {
		r.SavedBytes += op.SavedBytes
	}
	if r.FetchBytes > 0 {
		r.SpeedupPPM = r.SavedBytes * 1_000_000 / r.FetchBytes
	}
	return r
}

// textTopN bounds the ranked listing in the rendered report.
const textTopN = 20

// milli renders a ×1000 fixed-point value ("12.375").
func milli(v int64) string { return fmt.Sprintf("%d.%03d", v/1000, v%1000) }

// Text renders the report deterministically — the byte-identical surface
// cmd/criticctl's tests compare between local and distributed execution.
func (r *Report) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scan report\n")
	fmt.Fprintf(&b, "  image  %s  (%d static instrs: %d thumb, %d cdp)\n",
		r.ImageDigest, r.ImageInstrs, r.ImageThumb, r.ImageCDPs)
	fmt.Fprintf(&b, "  trace  %s  (%d dynamic instrs in %d chunks, %d unknown addrs)\n",
		r.TraceDigest, r.Instrs, r.Chunks, r.Unknown)
	fmt.Fprintf(&b, "  missed CritICs: %d, est. fetch savings %d of %d bytes (%d.%04d%%)\n",
		len(r.Opportunities), r.SavedBytes, r.FetchBytes, r.SpeedupPPM/10000, r.SpeedupPPM%10000)
	if len(r.Opportunities) == 0 {
		return b.String()
	}
	fmt.Fprintf(&b, "  %4s  %6s  %-10s  %3s  %10s  %5s\n", "rank", "chunk", "head", "len", "avg-fanout", "saved")
	for i, op := range r.Opportunities {
		if i >= textTopN {
			fmt.Fprintf(&b, "  ... and %d more\n", len(r.Opportunities)-textTopN)
			break
		}
		fmt.Fprintf(&b, "  %4d  %6d  %#-10x  %3d  %10s  %5d\n",
			i+1, op.Chunk, op.HeadAddr, op.Len, milli(op.AvgFanoutMilli), op.SavedBytes)
	}
	return b.String()
}
