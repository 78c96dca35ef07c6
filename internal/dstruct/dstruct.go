// Package dstruct provides the evaluation data structures of §3.3–3.4,
// substituting for the C5 Generic Collection library used by the paper's
// implementation: the tuple dictionary D_R keyed by (distance, final-flag)
// with O(1) insertion and removal at the head of each list, the hashed
// visited set with O(1) lookup, and the answer registry answers_R.
//
// The hot-path structures are flat and index-addressed: D_R is a monotone
// bucket queue (an array of per-distance tuple stacks with an advancing
// cursor), and the visited set and answer registry are open-addressed hash
// tables over packed integer keys. RefDict retains the original
// map-plus-binary-heap dictionary as a differential-testing reference.
package dstruct

import (
	"omega/internal/graph"
)

// Tuple is a traversal tuple (v, n, s, d, f): visiting node n in automaton
// state s at distance d, having started from node v; f marks 'final' tuples,
// which are answers waiting to be emitted.
type Tuple struct {
	V, N  graph.NodeID
	S     int32
	D     int32
	Final bool
}

// bucket holds the tuples of one distance, split by final flag. In Dict both
// lists are LIFO stacks, matching the paper's add/remove at the head of a
// linked list; in Deferred the same layout holds FIFO generation order.
type bucket struct {
	final    []Tuple
	nonFinal []Tuple
}

// push routes t into the sub-list Dict ordering expects: final tuples to the
// final list unless the noFinalFirst ablation collapses the distinction.
// Deferred uses the identical routing so its buckets can be adopted wholesale.
func (b *bucket) push(t Tuple, noFinalFirst bool) {
	if t.Final && !noFinalFirst {
		b.final = append(b.final, t)
	} else {
		b.nonFinal = append(b.nonFinal, t)
	}
}

// growBuckets extends a distance-indexed bucket array to cover distance d,
// over-allocating to amortise repeated extension and capping at the flat
// range bound.
func growBuckets(buckets []bucket, d int) []bucket {
	capWant := d + 1
	if c := 2 * len(buckets); c > capWant {
		capWant = c
	}
	if capWant > maxBucketDist {
		capWant = maxBucketDist
	}
	next := make([]bucket, capWant)
	copy(next, buckets)
	return next
}

// maxBucketDist bounds the flat bucket array: distances in [0, maxBucketDist)
// take the index-addressed fast path; anything else (negative or huge
// distances, reachable only through extreme custom edit/relax costs) lands in
// a sparse map+heap overflow so no cost configuration can panic the queue or
// blow up its memory.
const maxBucketDist = 1 << 16

// Dict is the dictionary D_R. Keys order by distance ascending; at equal
// distance, final tuples are removed before non-final ones — the refinement
// §3.3 reports as returning answers earlier and rescuing queries that
// previously exhausted memory. Within a key, tuples are a LIFO stack.
//
// The implementation is a monotone bucket queue: buckets is indexed directly
// by distance and cursor is a lower bound on the minimal non-empty distance.
// GetNext pops in non-decreasing distance and every insertion is at a
// distance no smaller than the last pop, so the cursor only advances;
// insertions below the cursor (which evaluation never produces) pull it back,
// keeping the structure correct for arbitrary workloads. Distances outside
// [0, maxBucketDist) go to the sparse overflow dictionary; the two ranges are
// disjoint, so overall ordering is negative overflow, then buckets, then
// large overflow.
type Dict struct {
	buckets      []bucket
	cursor       int
	overflow     *RefDict // lazily created; holds out-of-range distances
	size         int
	adds         int // total insertions over the Dict's lifetime
	noFinalFirst bool
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{}
}

// NewDictNoFinalFirst returns a dictionary that orders purely by distance,
// ignoring the final flag (ablation of the §3.3 refinement).
func NewDictNoFinalFirst() *Dict {
	return &Dict{noFinalFirst: true}
}

// Add inserts t.
func (dd *Dict) Add(t Tuple) {
	d := int(t.D)
	if d < 0 || d >= maxBucketDist {
		if dd.overflow == nil {
			dd.overflow = NewRefDict(dd.noFinalFirst)
		}
		dd.overflow.Add(t)
		dd.size++
		dd.adds++
		return
	}
	if d >= len(dd.buckets) {
		dd.buckets = growBuckets(dd.buckets, d)
	}
	dd.buckets[d].push(t, dd.noFinalFirst)
	if d < dd.cursor {
		dd.cursor = d
	}
	dd.size++
	dd.adds++
}

// negOverflowMin returns the minimal overflow distance when it is negative —
// negative distances order before every bucket.
func (dd *Dict) negOverflowMin() (int32, bool) {
	if dd.overflow == nil || dd.overflow.Len() == 0 {
		return 0, false
	}
	if md, ok := dd.overflow.MinDistance(); ok && md < 0 {
		return md, true
	}
	return 0, false
}

// Remove pops the tuple with minimal key (distance first, final preferred).
func (dd *Dict) Remove() (Tuple, bool) {
	if _, neg := dd.negOverflowMin(); neg {
		t, ok := dd.overflow.Remove()
		if ok {
			dd.size--
		}
		return t, ok
	}
	for dd.cursor < len(dd.buckets) {
		b := &dd.buckets[dd.cursor]
		if n := len(b.final); n > 0 {
			t := b.final[n-1]
			b.final = b.final[:n-1]
			dd.size--
			return t, true
		}
		if n := len(b.nonFinal); n > 0 {
			t := b.nonFinal[n-1]
			b.nonFinal = b.nonFinal[:n-1]
			dd.size--
			return t, true
		}
		dd.cursor++
	}
	if dd.overflow != nil {
		t, ok := dd.overflow.Remove()
		if ok {
			dd.size--
		}
		return t, ok
	}
	return Tuple{}, false
}

// Len returns the number of stored tuples.
func (dd *Dict) Len() int { return dd.size }

// Reset restores the dictionary to its empty state while retaining the bucket
// array and every per-bucket slice capacity, so a pooled reuse inserts on the
// steady path without allocating. Tuples hold no pointers, so truncating the
// slices pins no garbage. noFinalFirst is re-armed because a pooled dictionary
// may serve engines with different ablation settings. The rare out-of-range
// overflow dictionary is dropped rather than recycled (it only exists under
// extreme custom costs, and its map+heap does not reset cheaply).
func (dd *Dict) Reset(noFinalFirst bool) {
	for i := range dd.buckets {
		b := &dd.buckets[i]
		b.final = b.final[:0]
		b.nonFinal = b.nonFinal[:0]
	}
	dd.cursor = 0
	dd.overflow = nil
	dd.size = 0
	dd.adds = 0
	dd.noFinalFirst = noFinalFirst
}

// Adds returns the lifetime number of insertions (the memory-pressure metric
// used to emulate the paper's out-of-memory failures).
func (dd *Dict) Adds() int { return dd.adds }

// MinDistance returns the smallest distance present, if any. GetNext uses it
// to decide when to pull the next batch of initial nodes ("no distance 0
// tuples in D_R", §3.4 lines 15–17).
func (dd *Dict) MinDistance() (int32, bool) {
	if md, neg := dd.negOverflowMin(); neg {
		return md, true
	}
	for dd.cursor < len(dd.buckets) {
		b := &dd.buckets[dd.cursor]
		if len(b.final) > 0 || len(b.nonFinal) > 0 {
			return int32(dd.cursor), true
		}
		dd.cursor++
	}
	if dd.overflow != nil {
		return dd.overflow.MinDistance()
	}
	return 0, false
}

// minKey returns the packed (distance, final) key the next Remove would pop,
// if any. SpillDict uses it to arbitrate between resident and spilled tuples.
func (dd *Dict) minKey() (int64, bool) {
	if _, neg := dd.negOverflowMin(); neg {
		return dd.overflow.minKey()
	}
	for dd.cursor < len(dd.buckets) {
		b := &dd.buckets[dd.cursor]
		if len(b.final) > 0 {
			return key(int32(dd.cursor), true), true
		}
		if len(b.nonFinal) > 0 {
			return key(int32(dd.cursor), false), true
		}
		dd.cursor++
	}
	if dd.overflow != nil {
		return dd.overflow.minKey()
	}
	return 0, false
}

// Err implements TupleDict for the in-memory Dict.
func (dd *Dict) Err() error { return nil }

// Close implements TupleDict for the in-memory Dict.
func (dd *Dict) Close() error { return nil }

// Memory accounting (§ memory governance). Every structure reports its
// resident footprint in bytes so the evaluator can aggregate per-execution
// live bytes and enforce soft/hard watermarks. The figures are capacity-based
// estimates from fixed per-entry sizes — close enough to steer spill
// escalation and budget aborts, cheap enough to sample on the hot path.
const (
	tupleMem    = 20 // Tuple: 4×int32 + bool, padded
	bucketMem   = 48 // bucket: two slice headers
	visEntryMem = 16 // visEntry: uint64 + int32 + uint32
	answerMem   = 12 // Answer: 3×int32
)

// Bytes returns the approximate resident footprint of the dictionary,
// counting slice capacities (what the process actually holds), not live
// tuples. Cost is O(len(buckets)); callers sample rather than call per add.
func (dd *Dict) Bytes() int64 {
	n := int64(cap(dd.buckets)) * bucketMem
	for i := range dd.buckets {
		b := &dd.buckets[i]
		n += int64(cap(b.final)+cap(b.nonFinal)) * tupleMem
	}
	if dd.overflow != nil {
		n += dd.overflow.Bytes()
	}
	return n
}

// Bytes returns the approximate resident footprint of the visited table.
func (vs *Visited) Bytes() int64 {
	return int64(len(vs.entries)) * visEntryMem
}

// Bytes returns the approximate resident footprint of the set.
func (s *U64Set) Bytes() int64 {
	return int64(len(s.entries)) * 8
}

// Bytes returns the approximate resident footprint of the registry.
func (a *Answers) Bytes() int64 {
	return a.pairs.Bytes() + int64(cap(a.order))*answerMem
}

// Visited is the hashed set of processed (v, n, s) triples (visited_R). It
// is an open-addressed, linear-probed table over the packed (v, n) word and
// the state. Every slot carries the generation that wrote it and is live only
// while that equals the table's: a slot written under an earlier generation
// reads as empty, so Reset is one increment and a probe sequence stops, and
// an insertion lands, exactly where it would on a cleared table.
type Visited struct {
	entries []visEntry
	n       int
	gen     uint32 // the live generation; never 0, which marks a never-written slot
}

// visEntry is 16 bytes with or without gen: it sits in what was padding.
type visEntry struct {
	vn  uint64
	s   int32
	gen uint32
}

const visitedMinCap = 64 // power of two

// NewVisited returns an empty visited set. Like every table here it starts at
// visitedMinCap slots and doubles at 3/4 load, so its capacity stays under
// 8/3 of the largest population it has held.
func NewVisited() *Visited {
	return &Visited{entries: make([]visEntry, visitedMinCap), gen: 1}
}

// NewVisitedSized is NewVisited. The argument, once a population hint the
// table jumped to, is ignored; the signature survives only because
// benchmark/layers calls it (ROADMAP item 8 drops the parameter there).
func NewVisitedSized(_ int) *Visited { return NewVisited() }

func pack(v, n graph.NodeID) uint64 {
	return uint64(uint32(v))<<32 | uint64(uint32(n))
}

// hashKey mixes the packed node pair and state (splitmix64-style finaliser).
func hashKey(vn uint64, s int32) uint64 {
	h := vn ^ uint64(uint32(s))*0x9E3779B97F4A7C15
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	return h
}

// Add inserts (v, n, s), reporting whether it was newly added. The paper
// executes the membership test and the insertion "as a single step" (§3.4).
func (vs *Visited) Add(v, n graph.NodeID, s int32) bool {
	if 4*(vs.n+1) > 3*len(vs.entries) {
		vs.rehash(2 * len(vs.entries))
	}
	vn := pack(v, n)
	mask := uint64(len(vs.entries) - 1)
	i := hashKey(vn, s) & mask
	for {
		e := &vs.entries[i]
		if e.gen != vs.gen {
			*e = visEntry{vn: vn, s: s, gen: vs.gen}
			vs.n++
			return true
		}
		if e.vn == vn && e.s == s {
			return false
		}
		i = (i + 1) & mask
	}
}

// Reset empties the set in O(1) by moving to the next generation, retaining
// the table at its current capacity (a pooled reuse probes the same-sized
// table a warm run would have grown into, skipping every rehash copy). Only
// when the 32-bit generation wraps — once per 2³² resets — is the table
// cleared, so that no slot of a long-gone generation can read as live again.
// Membership is the only observable behaviour, so a reset table is
// indistinguishable from a fresh one to the evaluator. The argument is the
// ignored remnant of the size hint (see NewVisitedSized).
func (vs *Visited) Reset(_ int) {
	vs.n = 0
	if vs.gen++; vs.gen == 0 {
		clear(vs.entries)
		vs.gen = 1
	}
}

// Contains reports whether (v, n, s) has been processed.
func (vs *Visited) Contains(v, n graph.NodeID, s int32) bool {
	vn := pack(v, n)
	mask := uint64(len(vs.entries) - 1)
	i := hashKey(vn, s) & mask
	for {
		e := &vs.entries[i]
		if e.gen != vs.gen {
			return false
		}
		if e.vn == vn && e.s == s {
			return true
		}
		i = (i + 1) & mask
	}
}

// rehash moves the live entries into a table of newCap slots; what earlier
// generations left behind is dropped with the old table.
func (vs *Visited) rehash(newCap int) {
	old := vs.entries
	vs.entries = make([]visEntry, newCap)
	mask := uint64(newCap - 1)
	for _, e := range old {
		if e.gen != vs.gen {
			continue
		}
		i := hashKey(e.vn, e.s) & mask
		for vs.entries[i].gen == vs.gen {
			i = (i + 1) & mask
		}
		vs.entries[i] = e
	}
}

// Len returns the number of stored triples.
func (vs *Visited) Len() int { return vs.n }

// Answer is one produced conjunct answer (v, n, d).
type Answer struct {
	Src, Dst graph.NodeID
	Dist     int32
}

// U64Set is an open-addressed, linear-probed set of uint64 keys whose bit 63
// is never set — which holds for every key packed from non-negative int32
// pairs — so a word with bit 63 set can mark empty slots. It backs the
// answer-registry pair set here and the projection de-duplication in the
// join layer.
type U64Set struct {
	entries []uint64
	n       int
}

// u64Empty marks an empty slot; packed keys never set bit 63.
const u64Empty = uint64(1) << 63

// NewU64Set returns an empty set.
func NewU64Set() *U64Set {
	s := &U64Set{entries: make([]uint64, visitedMinCap)}
	for i := range s.entries {
		s.entries[i] = u64Empty
	}
	return s
}

// Add inserts k, reporting whether it was newly added.
func (s *U64Set) Add(k uint64) bool {
	if 4*(s.n+1) > 3*len(s.entries) {
		s.rehash(2 * len(s.entries))
	}
	mask := uint64(len(s.entries) - 1)
	i := hashKey(k, 0) & mask
	for s.entries[i] != u64Empty {
		if s.entries[i] == k {
			return false
		}
		i = (i + 1) & mask
	}
	s.entries[i] = k
	s.n++
	return true
}

// Reset empties the set, retaining capacity.
func (s *U64Set) Reset() {
	if s.n > 0 {
		for i := range s.entries {
			s.entries[i] = u64Empty
		}
	}
	s.n = 0
}

// blankCluster empties every slot from k's home slot up to the next empty
// one. It is the step of a reset by keys (Answers.Reset) and leaves the table
// consistent only once it has run for every stored key: each key sits in the
// run of occupied slots that contains its home slot, at or after it, and the
// blanked part of a run is always a tail of it — a later walk that starts
// earlier in the run blanks up to that tail, one that starts inside the tail
// stops at once — so after the last key nothing is left, and no walk ever
// had to find a key across slots that an earlier one emptied.
func (s *U64Set) blankCluster(k uint64) {
	mask := uint64(len(s.entries) - 1)
	for i := hashKey(k, 0) & mask; s.entries[i] != u64Empty; i = (i + 1) & mask {
		s.entries[i] = u64Empty
	}
}

// Contains reports whether k is in the set.
func (s *U64Set) Contains(k uint64) bool {
	mask := uint64(len(s.entries) - 1)
	i := hashKey(k, 0) & mask
	for s.entries[i] != u64Empty {
		if s.entries[i] == k {
			return true
		}
		i = (i + 1) & mask
	}
	return false
}

// Len returns the number of stored keys.
func (s *U64Set) Len() int { return s.n }

func (s *U64Set) rehash(newCap int) {
	old := s.entries
	s.entries = make([]uint64, newCap)
	for i := range s.entries {
		s.entries[i] = u64Empty
	}
	mask := uint64(newCap - 1)
	for _, k := range old {
		if k == u64Empty {
			continue
		}
		i := hashKey(k, 0) & mask
		for s.entries[i] != u64Empty {
			i = (i + 1) & mask
		}
		s.entries[i] = k
	}
}

// Answers is the registry answers_R: it remembers every (v, n) pair already
// emitted so the same pair is never returned at a higher distance.
type Answers struct {
	pairs *U64Set
	order []Answer
}

// NewAnswers returns an empty registry.
func NewAnswers() *Answers {
	return &Answers{pairs: NewU64Set()}
}

// NewAnswersSized is NewAnswers; the argument is the ignored remnant of the
// size hint, kept for benchmark/layers (see NewVisitedSized).
func NewAnswersSized(_ int) *Answers { return NewAnswers() }

// answersSparseClear is how many slots per stored pair make clearing by key
// cheaper than refilling the table: a key costs a hash and a cache line that
// may be cold, a slot of the sequential fill about half a nanosecond. Timed
// on tables of 16 k to 1 M slots, by key wins from 16 slots a pair up and
// loses at 8.
const answersSparseClear = 16

// Reset empties the registry, retaining the pair-set table and the emission
// slice capacity (Answer holds no pointers, so truncation pins no garbage).
// order holds every stored pair, so a table that is mostly empty — a top-100
// request on a bundle that once held an exhaustive scan — is cleared by
// visiting those pairs, in O(answers) rather than O(capacity); a dense one is
// refilled with the empty marker. The argument is ignored (see
// NewAnswersSized).
func (a *Answers) Reset(_ int) {
	if answersSparseClear*len(a.order) <= len(a.pairs.entries) {
		for _, an := range a.order {
			a.pairs.blankCluster(pack(an.Src, an.Dst))
		}
		a.pairs.n = 0
	} else {
		a.pairs.Reset()
	}
	a.order = a.order[:0]
}

// Has reports whether (v, n) was already emitted at some distance.
func (a *Answers) Has(v, n graph.NodeID) bool {
	return a.pairs.Contains(pack(v, n))
}

// Add records (v, n, d) if the pair is new, reporting whether it was added.
func (a *Answers) Add(v, n graph.NodeID, d int32) bool {
	if !a.pairs.Add(pack(v, n)) {
		return false
	}
	a.order = append(a.order, Answer{Src: v, Dst: n, Dist: d})
	return true
}

// Len returns the number of emitted answers.
func (a *Answers) Len() int { return len(a.order) }

// List returns the answers in emission order. The slice aliases internal
// storage and must not be modified.
func (a *Answers) List() []Answer { return a.order }
