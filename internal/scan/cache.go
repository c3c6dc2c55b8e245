package scan

import (
	"io"

	"critics/internal/sched"
)

// IndexCacheBytes is an IndexCache's retention budget in index bytes. Past
// it an index is built for each use instead of retained, the policy the
// measurement memo has too.
const IndexCacheBytes = 256 << 20

// IndexCache memoizes image indexes by image digest. The digest names the
// image bytes and an index is a pure function of them, so one build serves
// every later scan of the image; concurrent lookups of one digest share a
// single build. criticd's coordinator and its dist workers each keep one.
type IndexCache struct {
	memo *sched.Memo[*Index]
}

// NewIndexCache returns an empty cache with the IndexCacheBytes budget.
func NewIndexCache() *IndexCache {
	return &IndexCache{memo: sched.NewMemo[*Index](IndexCacheBytes)}
}

// Get returns the index of the image named digest and whether it was
// already cached. On a miss it builds the index from img, size bytes long;
// on a hit img is left unread. A failed build (a decode error, or a read
// that failed integrity verification) returns its error and is not
// retained, so the next lookup decodes afresh.
func (c *IndexCache) Get(digest string, img io.Reader, size int64) (*Index, bool, error) {
	var err error
	idx, hit := c.memo.GetChecked(sched.KeyOf(digest),
		func() *Index {
			var idx *Index
			idx, err = BuildIndex(img, size)
			return idx
		},
		(*Index).footprint,
		func() bool { return err == nil })
	if err != nil {
		return nil, false, err
	}
	return idx, hit, nil
}

// Stats returns the cache's hit and miss counters.
func (c *IndexCache) Stats() sched.Stats { return c.memo.Stats() }
