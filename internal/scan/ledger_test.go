package scan_test

import (
	"testing"

	"critics/internal/ledger"
)

// TestBuildIndexAllocCeiling gates the ledger's scan index row,
// ledger.Index: indexing a multi-MB image makes at most 16 allocations and
// 12 bytes per image byte, never a copy of the image. Its ns/op is logged,
// not gated.
func TestBuildIndexAllocCeiling(t *testing.T) { ledger.Run(t, ledger.Index) }

// BenchmarkBuildIndex is the index row's benchmark: one BuildIndex over
// acrobat's scan image, doubled past 4 MiB.
func BenchmarkBuildIndex(b *testing.B) { ledger.Index.Bench(b) }
