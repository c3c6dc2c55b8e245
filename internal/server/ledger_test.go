package server_test

import (
	"testing"

	"critics/internal/ledger"
)

// TestProfileIngestAllocCeiling gates the ledger's fleet ingest-request row,
// ledger.Ingest: at most 32,768 B per POST /v1/profiles request, body to
// consensus, over 2000 requests. Its ns/op is logged, not gated.
func TestProfileIngestAllocCeiling(t *testing.T) { ledger.Run(t, ledger.Ingest) }

// BenchmarkProfileIngest is the ingest-request row's benchmark: one POST
// /v1/profiles request, served in process, through merge.
func BenchmarkProfileIngest(b *testing.B) { ledger.Ingest.Bench(b) }
