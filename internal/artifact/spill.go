package artifact

import (
	"sync"

	"critics/internal/sched"
)

// MemoSpill adapts a Store to sched.SpillStore, letting memo caches spill
// over-budget values into the content-addressed store instead of dropping
// them. Memo keys are already SHA-256 digests, but of the *inputs*; the
// store addresses by content, so the adapter keeps a key→digest index and
// pins each spilled blob with a ref while the index points at it.
type MemoSpill struct {
	store *Store

	mu    sync.Mutex
	index map[sched.Key]string
}

// NewMemoSpill returns a spill adapter over st.
func NewMemoSpill(st *Store) *MemoSpill {
	return &MemoSpill{store: st, index: map[sched.Key]string{}}
}

// SpillPut stores data and remembers it under k, reporting whether it was
// retained.
func (m *MemoSpill) SpillPut(k sched.Key, data []byte) bool {
	d, err := m.store.PutBytes(data)
	if err != nil {
		return false
	}
	m.mu.Lock()
	prev, had := m.index[k]
	m.index[k] = d
	m.mu.Unlock()
	if had && prev == d {
		return true // re-spill of the identical value; ref already held
	}
	m.store.AddRef(d)
	if had {
		m.store.Release(prev)
	}
	return true
}

// SpillGet returns the bytes previously spilled under k. A blob that has
// since failed verification or vanished drops its index entry so the memo
// rebuilds.
func (m *MemoSpill) SpillGet(k sched.Key) ([]byte, bool) {
	m.mu.Lock()
	d, ok := m.index[k]
	m.mu.Unlock()
	if !ok {
		return nil, false
	}
	data, err := m.store.Get(d)
	if err != nil {
		m.mu.Lock()
		if cur, ok := m.index[k]; ok && cur == d {
			delete(m.index, k)
		}
		m.mu.Unlock()
		m.store.Release(d)
		return nil, false
	}
	return data, true
}

// Len returns the number of spilled keys currently indexed.
func (m *MemoSpill) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.index)
}
