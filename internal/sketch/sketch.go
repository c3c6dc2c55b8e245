// Package sketch implements the mergeable, bounded-size profile summaries
// the fleet PGO loop ships from devices to the coordinator: a count-min
// structure over hoistable chain keys, an exact top-key stat list, fanout
// and stall-attribution aggregates, and a bottom-k distinct-device
// estimator, all under one versioned binary wire form (wire.go).
//
// Merge semantics are the load-bearing design decision. A fleet ingests
// sketches in whatever order the network delivers them — duplicated,
// reordered, re-sent after a timeout — and the consensus must not depend on
// any of that. So Merge is a lattice join, not an accumulation: every field
// combines by least-upper-bound (element-wise MAX on count-min cells,
// per-key MAX on counts and fanout, union on key and device sets), which
// makes it commutative, associative and idempotent by construction. The
// price is the reading of a consensus count: it is the maximum any one
// device reported, not a fleet-wide sum. Devices cooperate by keeping their
// own sketch cumulative and monotone across rounds (AddProfile only ever
// grows counts), so a re-send supersedes earlier deliveries and a join over
// any subset of deliveries from any devices yields the same state as the
// join over the latest delivery of each — a state-based CRDT.
//
// Sizes are bounded at build time, never at merge time: MaxTrackedKeys caps
// the exact key list when a device builds its sketch (deterministic top-K
// by count, then key order), and Merge performs pure unions — truncating
// inside Merge would break associativity. The union across a fleet is still
// bounded by the app's finite static chain universe.
package sketch

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/bits"
	"slices"
	"sort"

	"critics/internal/core"
	"critics/internal/cpu"
)

// Structure bounds. Part of the wire format: changing any of them is a
// Version bump.
const (
	// Depth and Width shape the count-min structure: 4 independently-hashed
	// rows of 1024 counters each. Point queries read the minimum over rows,
	// so collisions only ever over-estimate.
	Depth = 4
	Width = 1024

	// MaxTrackedKeys caps the exact per-key stat list a device includes —
	// the bounded "heavy hitters" the coordinator ranks exactly; everything
	// else is visible only through the count-min estimates.
	MaxTrackedKeys = 512

	// KMVSize is the bottom-k bound of the distinct-device estimator.
	KMVSize = 64

	// FanoutBuckets is the power-of-two fanout histogram size: bucket i
	// covers fanout [2^i, 2^(i+1)), the last bucket is open-ended.
	FanoutBuckets = 8

	// StallStages is the stall-attribution vector length, mirroring
	// cpu.Breakdown's §II-D taxonomy (fetch-I, fetch-RD, decode, rename,
	// execute, commit).
	StallStages = 6

	// MaxAppName bounds the app-name field on the wire.
	MaxAppName = 128
)

// KeyStat is one exactly-tracked chain key: the bounded heavy-hitter list
// the consensus profile is assembled from.
type KeyStat struct {
	Key core.ChainKey

	// Count is the dynamic-occurrence count. Devices accumulate it
	// monotonically; merged sketches carry the per-device maximum.
	Count uint64

	// FanoutMilli is the occurrence-weighted mean chain criticality ×1000,
	// fixed-point so the wire form and the merge stay integer-exact.
	FanoutMilli uint64

	// ThumbOK reports the all-or-nothing 16-bit representability of the
	// chain. It is a property of the static program, so devices agree;
	// merges AND it to stay conservative against disagreement.
	ThumbOK bool
}

// Sketch is one mergeable profile summary — what a device POSTs to
// /v1/profiles and what the coordinator folds per app into the consensus.
type Sketch struct {
	App string

	// TotalDyn is the dynamic instructions profiled (join: max).
	TotalDyn uint64

	// CM is the count-min structure over every chain key the device saw,
	// including the ones beyond the exact list's cap.
	CM [Depth][Width]uint64

	// Keys is the exact heavy-hitter list, sorted by core.LessKey (the
	// canonical order; the wire form requires it).
	Keys []KeyStat

	// Fanout is the per-instruction fanout histogram (power-of-two buckets).
	Fanout [FanoutBuckets]uint64

	// Stall is cycle dwell by pipeline stage from a device-side micro
	// simulation window, in cpu.Breakdown order.
	Stall [StallStages]uint64

	// Devices is the bottom-k set of 64-bit device-id hashes, ascending and
	// distinct — a KMV estimator of how many devices contributed.
	Devices []uint64

	// spare is the key list a merge writes into before swapping it with
	// Keys, so a consensus joins without reallocating. Never shared: Clone
	// leaves it nil.
	spare []KeyStat
}

// New returns an empty sketch for one app.
func New(app string) *Sketch { return &Sketch{App: app} }

// rowSeeds salt the count-min rows; arbitrary odd constants.
var rowSeeds = [Depth]uint64{
	0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9, 0x94d049bb133111eb, 0xd6e8feb86659fd93,
}

// mix64 is the splitmix64 finalizer — a cheap, well-distributed 64-bit hash.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// keyBits folds a chain key into one uint64 (the key is 12 significant
// bytes; fold the index bytes over the header).
func keyBits(k core.ChainKey) uint64 {
	hi := uint64(k.Func)<<24 | uint64(k.Block)<<8 | uint64(k.N)
	lo := binary.LittleEndian.Uint64(k.Idx[:])
	return hi ^ (lo * 0x9e3779b97f4a7c15)
}

// cmIndex returns row r's cell index for key k.
func cmIndex(r int, k core.ChainKey) int {
	return int(mix64(keyBits(k)^rowSeeds[r]) % Width)
}

// HashDevice maps a device identifier to its KMV hash.
func HashDevice(id string) uint64 {
	h := uint64(1469598103934665603) // FNV offset basis
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	return mix64(h)
}

// ---- device-side construction (monotone) ---------------------------------

// SetCount records key k's cumulative dynamic-occurrence count: the exact
// list and the count-min cells are raised to at least n (never lowered), so
// repeated calls with a growing count keep the sketch monotone. fanoutMilli
// and thumb travel with the key's stat.
func (s *Sketch) SetCount(k core.ChainKey, n, fanoutMilli uint64, thumb bool) {
	for r := 0; r < Depth; r++ {
		if c := &s.CM[r][cmIndex(r, k)]; *c < n {
			*c = n
		}
	}
	i := sort.Search(len(s.Keys), func(i int) bool { return !core.LessKey(s.Keys[i].Key, k) })
	if i < len(s.Keys) && s.Keys[i].Key == k {
		st := &s.Keys[i]
		if st.Count < n {
			st.Count = n
		}
		if st.FanoutMilli < fanoutMilli {
			st.FanoutMilli = fanoutMilli
		}
		st.ThumbOK = st.ThumbOK && thumb
		return
	}
	s.Keys = append(s.Keys, KeyStat{})
	copy(s.Keys[i+1:], s.Keys[i:])
	s.Keys[i] = KeyStat{Key: k, Count: n, FanoutMilli: fanoutMilli, ThumbOK: thumb}
}

// AddProfile folds a device-local CritIC profile into the sketch: every
// candidate chain raises its count-min cells, the heavy hitters land in the
// exact list, and TotalDyn is raised to the profile's. Entries must carry
// cumulative counts (core.BuildProfile over a device's cumulative window
// set does), so re-adding a later, larger profile supersedes — never
// double-counts — the earlier one.
func (s *Sketch) AddProfile(p *core.Profile) {
	if t := uint64(p.TotalDyn); s.TotalDyn < t {
		s.TotalDyn = t
	}
	for i := range p.Entries {
		e := &p.Entries[i]
		fm := uint64(math.Round(e.AvgFanout * 1000))
		s.SetCount(e.Key, uint64(e.DynCount), fm, e.ThumbOK)
	}
	s.Truncate(MaxTrackedKeys)
}

// AddFanout raises the fanout histogram to at least the given cumulative
// bucket counts (len(counts) ≤ FanoutBuckets; extra buckets fold into the
// last).
func (s *Sketch) AddFanout(counts []uint64) {
	for i, n := range counts {
		b := i
		if b >= FanoutBuckets {
			b = FanoutBuckets - 1
		}
		if s.Fanout[b] < n {
			s.Fanout[b] = n
		}
	}
}

// FanoutBucket returns the histogram bucket of one fanout observation:
// floor(log2(fanout)), clamped to the histogram.
func FanoutBucket(fanout int32) int {
	if fanout < 1 {
		fanout = 1
	}
	b := bits.Len32(uint32(fanout)) - 1
	if b >= FanoutBuckets {
		b = FanoutBuckets - 1
	}
	return b
}

// AddStall raises the stall-attribution vector to at least b's cumulative
// cycle dwell.
func (s *Sketch) AddStall(b cpu.Breakdown) {
	v := [StallStages]uint64{
		uint64(b.FetchI), uint64(b.FetchRD), uint64(b.Decode),
		uint64(b.Rename), uint64(b.Execute), uint64(b.Commit),
	}
	for i := range v {
		if s.Stall[i] < v[i] {
			s.Stall[i] = v[i]
		}
	}
}

// AddDevice records a contributing device in the KMV set.
func (s *Sketch) AddDevice(id string) { s.addDeviceHash(HashDevice(id)) }

// addDeviceHash inserts h into the ascending bottom-k set, reporting whether
// the set changed. Keeping only the k smallest hashes is itself a lattice
// join: bottomK(A ∪ B) == bottomK(bottomK(A) ∪ bottomK(B)).
func (s *Sketch) addDeviceHash(h uint64) bool {
	i := sort.Search(len(s.Devices), func(i int) bool { return s.Devices[i] >= h })
	if i < len(s.Devices) && s.Devices[i] == h {
		return false
	}
	if len(s.Devices) >= KMVSize {
		if i >= KMVSize {
			return false // larger than every retained hash
		}
		copy(s.Devices[i+1:], s.Devices[i:])
		s.Devices[i] = h
		return true
	}
	s.Devices = append(s.Devices, 0)
	copy(s.Devices[i+1:], s.Devices[i:])
	s.Devices[i] = h
	return true
}

// Truncate bounds the exact key list to the n largest counts (ties broken
// by key order), keeping canonical key order. A build-time operation only:
// merged sketches are never truncated (it would break associativity).
func (s *Sketch) Truncate(n int) {
	if n <= 0 || len(s.Keys) <= n {
		return
	}
	byCount := make([]KeyStat, len(s.Keys))
	copy(byCount, s.Keys)
	sort.Slice(byCount, func(i, j int) bool {
		if byCount[i].Count != byCount[j].Count {
			return byCount[i].Count > byCount[j].Count
		}
		return core.LessKey(byCount[i].Key, byCount[j].Key)
	})
	byCount = byCount[:n]
	sort.Slice(byCount, func(i, j int) bool { return core.LessKey(byCount[i].Key, byCount[j].Key) })
	s.Keys = byCount
}

// ---- lattice join --------------------------------------------------------

// Merge joins o into s (least-upper-bound on every field) and reports
// whether s changed. Merge is commutative, associative and idempotent — the
// property tests in laws_test.go enforce it — so a consensus folded from
// any delivery order, with any duplication, is identical.
func (s *Sketch) Merge(o *Sketch) bool {
	changed := false
	if s.App == "" && o.App != "" {
		s.App, changed = o.App, true
	}
	if s.TotalDyn < o.TotalDyn {
		s.TotalDyn, changed = o.TotalDyn, true
	}
	for r := 0; r < Depth; r++ {
		for i := 0; i < Width; i++ {
			if s.CM[r][i] < o.CM[r][i] {
				s.CM[r][i], changed = o.CM[r][i], true
			}
		}
	}
	for i := range o.Fanout {
		if s.Fanout[i] < o.Fanout[i] {
			s.Fanout[i], changed = o.Fanout[i], true
		}
	}
	for i := range o.Stall {
		if s.Stall[i] < o.Stall[i] {
			s.Stall[i], changed = o.Stall[i], true
		}
	}
	if s.mergeKeys(o.Keys) {
		changed = true
	}
	for _, h := range o.Devices {
		if s.addDeviceHash(h) {
			changed = true
		}
	}
	return changed
}

// mergeKeys unions o's exact stats into s's (both canonically ordered),
// joining stats of shared keys. Returns whether s changed. The union is
// written into s.spare, which then swaps places with s.Keys: the previous
// key list becomes the next merge's spare.
func (s *Sketch) mergeKeys(o []KeyStat) bool {
	if len(o) == 0 {
		return false
	}
	changed := false
	out := slices.Grow(s.spare[:0], len(s.Keys)+len(o))
	i, j := 0, 0
	for i < len(s.Keys) && j < len(o) {
		a, b := &s.Keys[i], &o[j]
		switch {
		case a.Key == b.Key:
			st := *a
			if st.Count < b.Count {
				st.Count, changed = b.Count, true
			}
			if st.FanoutMilli < b.FanoutMilli {
				st.FanoutMilli, changed = b.FanoutMilli, true
			}
			if st.ThumbOK && !b.ThumbOK {
				st.ThumbOK, changed = false, true
			}
			out = append(out, st)
			i, j = i+1, j+1
		case core.LessKey(a.Key, b.Key):
			out = append(out, *a)
			i++
		default:
			out = append(out, *b)
			changed = true
			j++
		}
	}
	out = append(out, s.Keys[i:]...)
	if j < len(o) {
		out = append(out, o[j:]...)
		changed = true
	}
	s.Keys, s.spare = out, s.Keys
	return changed
}

// Clone returns a deep copy (the aggregator hands clones to optimizer runs
// so a concurrent merge never mutates a snapshot under them).
func (s *Sketch) Clone() *Sketch {
	c := *s
	c.Keys = append([]KeyStat(nil), s.Keys...)
	c.Devices = append([]uint64(nil), s.Devices...)
	c.spare = nil
	return &c
}

// ---- queries -------------------------------------------------------------

// Estimate returns the count-min estimate for key k (min over rows): exact
// for tracked keys, an upper bound with collision noise for the tail.
func (s *Sketch) Estimate(k core.ChainKey) uint64 {
	est := s.CM[0][cmIndex(0, k)]
	for r := 1; r < Depth; r++ {
		if c := s.CM[r][cmIndex(r, k)]; c < est {
			est = c
		}
	}
	return est
}

// DevicesEstimate returns the KMV distinct-device estimate: exact below
// KMVSize, (k-1)/h_(k) scaled to the 64-bit hash space above it.
func (s *Sketch) DevicesEstimate() float64 {
	n := len(s.Devices)
	if n < KMVSize {
		return float64(n)
	}
	kth := float64(s.Devices[n-1]) / float64(math.MaxUint64)
	if kth == 0 {
		return float64(n)
	}
	return float64(n-1) / kth
}

// Profile assembles the consensus CritIC profile from the exact key list:
// ranked candidate entries a selection policy (core.Config) then marks.
func (s *Sketch) Profile() *core.Profile {
	p := &core.Profile{App: s.App, TotalDyn: int64(s.TotalDyn)}
	p.Entries = make([]core.Entry, 0, len(s.Keys))
	for i := range s.Keys {
		st := &s.Keys[i]
		p.Entries = append(p.Entries, core.Entry{
			Key:       st.Key,
			Length:    int(st.Key.N),
			DynCount:  int64(st.Count),
			AvgFanout: float64(st.FanoutMilli) / 1000,
			ThumbOK:   st.ThumbOK,
		})
	}
	p.Rank()
	return p
}

// Digest returns a short hex digest of the canonical wire encoding — the
// byte-identity witness the closed-loop determinism test compares across
// permuted ingest orders.
func (s *Sketch) Digest() string {
	sum := sha256.Sum256(s.Encode())
	return hex.EncodeToString(sum[:8])
}
