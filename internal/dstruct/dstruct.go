// Package dstruct provides the evaluation data structures of §3.3–3.4,
// substituting for the C5 Generic Collection library used by the paper's
// implementation: the tuple dictionary D_R keyed by (distance, final-flag)
// with O(1) insertion and removal at the head of each list, the visited set
// (hashed, or a bitmap) with O(1) lookup, and the answer registry answers_R;
// and a paged two-bit memo over (node, state) for the evaluator's own use.
//
// The hot-path structures are flat and index-addressed: D_R is a monotone
// bucket queue (an array of per-distance tuple stacks with an advancing
// cursor), the visited set of a Case 1 search is a paged bitmap over
// (seed, state, node), and the Case 3 visited set and the answer registry are
// open-addressed hash tables over packed integer keys. RefDict retains the
// original map-plus-binary-heap dictionary, as the Dict's overflow range and
// as its differential-testing reference.
package dstruct

import (
	"math"

	"omega/internal/graph"
)

// Tuple is a traversal tuple (v, n, s, d, f): visiting node n in automaton
// state s at distance d, having started from node v; f marks 'final' tuples,
// which are answers waiting to be emitted.
//
// A tuple whose S is negative is a continuation instead (see Cont): it stands
// for the successors of n over one automaton transition that are still to be
// generated, all at distance d. It is never final, so it queues and parks
// exactly where a plain successor at d would.
type Tuple struct {
	V, N  graph.NodeID
	S     int32
	D     int32
	Final bool
	slot  uint32 // a continuation's slot number
}

// ContSlots bounds a continuation's slot number: a slot is 24 bits. The
// evaluator numbers one slot per transition and neighbour segment, so it is
// what limits the automata it can evaluate lazily.
const ContSlots = 1 << 24

// ContFlag is a mark a continuation carries in the unused top bits of its
// slot word, beside the 24-bit slot number.
type ContFlag uint32

const (
	// Skipped marks a continuation that passed over a successor it did not
	// yield; what that means is the caller's to interpret.
	Skipped ContFlag = 1 << 24
	// Lifted marks a continuation whose key sits above the distance of the
	// successors it yields. D_R pops a lifted entry after the final entries
	// of its distance and before the others.
	Lifted ContFlag = 1 << 25
	// Walk marks a continuation not yet positioned on a successor: its
	// cursor bounds the walk that will position it, which starts just below
	// the cursor. What that means is the caller's to interpret.
	Walk ContFlag = 1 << 26
)

// Cont returns a continuation from v at node n, distance d: slot names what
// it enumerates (a number below ContSlots, the caller's to interpret) and
// cursor (≥ 0) its position in that enumeration.
func Cont(v, n graph.NodeID, d, slot, cursor int32) Tuple {
	return Tuple{V: v, N: n, S: ^cursor, D: d, slot: uint32(slot)}
}

// IsCont reports whether t is a continuation.
func (t Tuple) IsCont() bool { return t.S < 0 }

// Slot returns a continuation's slot number.
func (t Tuple) Slot() int32 { return int32(t.slot & (ContSlots - 1)) }

// With returns the continuation t carrying flag f as well.
func (t Tuple) With(f ContFlag) Tuple {
	t.slot |= uint32(f)
	return t
}

// Has reports whether t carries flag f.
func (t Tuple) Has(f ContFlag) bool { return t.slot&uint32(f) != 0 }

// Cursor returns a continuation's cursor.
func (t Tuple) Cursor() int32 { return ^t.S }

// entry is a Tuple as a Dict bucket stores it, in 16 bytes: the bucket's
// index is its distance and the sub-list its final flag; a continuation's
// flags stay in slot.
type entry struct {
	V, N graph.NodeID
	S    int32
	slot uint32
}

// tuple rebuilds the Tuple e stands for at distance d.
func (e entry) tuple(d int, final bool) Tuple {
	return Tuple{V: e.V, N: e.N, S: e.S, D: int32(d), Final: final, slot: e.slot}
}

// bucket holds the entries of one distance, split by final flag; both lists
// are LIFO stacks, matching the paper's add/remove at the head of a linked
// list.
type bucket struct {
	final    []entry
	nonFinal []entry
}

func (b *bucket) push(t Tuple) {
	e := entry{V: t.V, N: t.N, S: t.S, slot: t.slot}
	if t.Final {
		b.final = append(b.final, e)
	} else {
		b.nonFinal = append(b.nonFinal, e)
	}
}

// grow extends a distance-indexed array to cover index d, at least doubling
// it to amortise repeated extension, and capping it at limit (> d).
func grow[T any](s []T, d, limit int) []T {
	next := make([]T, min(max(d+1, 2*len(s)), limit))
	copy(next, s)
	return next
}

// liftedAt returns the list of lifted entries at distance d, growing the
// side array — created here on the first lifted entry — to end at d. Lifted
// entries sit at a handful of distances, so the array takes no slack: it
// never holds a slice header past the highest lifted distance.
func (dd *Dict) liftedAt(d int) *[]entry {
	if d >= len(dd.lifted) {
		dd.lifted = grow(dd.lifted, d, d+1)
	}
	return &dd.lifted[d]
}

// maxBucketDist bounds the flat bucket array: distances in [0, maxBucketDist)
// take the index-addressed fast path; larger ones, reachable only through
// extreme custom edit/relax costs, land in a sparse map+heap overflow so no
// distance can blow up the queue's memory.
const maxBucketDist = 1 << 16

// noCeiling is the ceiling of a dictionary that parks nothing.
const noCeiling = math.MaxInt32

// Dict is the dictionary D_R. Keys order by distance ascending; at equal
// distance, final tuples are removed before non-final ones — the refinement
// §3.3 reports as returning answers earlier and rescuing queries that
// previously exhausted memory. Within a key, tuples are a LIFO stack.
//
// The implementation is a monotone bucket queue: buckets is indexed directly
// by distance and cursor is a lower bound on the minimal non-empty distance.
// GetNext pops in non-decreasing distance and nearly every insertion is at a
// distance no smaller than the last pop, so the cursor mostly advances; an
// insertion below the cursor pulls it back, keeping the structure correct for
// arbitrary workloads. Evaluation makes those only from a lifted
// continuation, whose successors sit one key below it. Distances are
// non-negative, as sums of non-negative costs; those from maxBucketDist up go
// to the sparse overflow dictionary, so overall ordering is buckets, then
// overflow.
//
// Entries above the pop ceiling stay in their buckets until a raised ceiling
// admits them. Each bucket then holds them in the order they were added,
// which is the stack the restarting reference would have built by generating
// them afresh.
//
// Lifted continuations pop between the final and the non-final entries of
// their distance. They are held apart, in a third LIFO stack per distance
// that a side array keeps, so a dictionary that never receives one never
// allocates it and its buckets stay two lists.
type Dict struct {
	buckets  []bucket
	lifted   [][]entry // per distance; nil until the first lifted entry
	cursor   int
	ceil     int      // pop ceiling; noCeiling when nothing is parked
	overflow *RefDict // lazily created; holds out-of-range distances
	size     int
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{ceil: noCeiling}
}

// Add inserts t. It panics on a negative distance.
func (dd *Dict) Add(t Tuple) {
	d := int(t.D)
	if uint(d) >= maxBucketDist {
		if d < 0 {
			panic("dstruct: Dict.Add at a negative distance")
		}
		if dd.overflow == nil {
			dd.overflow = NewRefDict()
			dd.overflow.SetCeiling(int32(dd.ceil))
		}
		dd.overflow.Add(t)
		dd.size++
		return
	}
	if d >= len(dd.buckets) {
		dd.buckets = grow(dd.buckets, d, maxBucketDist)
	}
	if t.Has(Lifted) {
		l := dd.liftedAt(d)
		*l = append(*l, entry{V: t.V, N: t.N, S: t.S, slot: t.slot})
	} else {
		dd.buckets[d].push(t)
	}
	if d < dd.cursor {
		dd.cursor = d
	}
	dd.size++
}

// SetCeiling sets the pop ceiling c: Remove returns no entry whose distance
// exceeds c, which parks it in place (the ψ of the incremental distance-aware
// mode, §4.3). It returns how many stored entries the new ceiling admits that
// the old one did not. A fresh or Reset dictionary has no ceiling. Raising
// the ceiling costs one step per bucket it passes.
func (dd *Dict) SetCeiling(c int32) int {
	n := 0
	if dd.overflow != nil {
		n = dd.overflow.SetCeiling(c)
	}
	for d := max(dd.ceil+1, 0); d <= int(c) && d < len(dd.buckets); d++ {
		n += len(dd.buckets[d].final) + len(dd.buckets[d].nonFinal)
		if d < len(dd.lifted) {
			n += len(dd.lifted[d])
		}
	}
	dd.ceil = int(c)
	return n
}

// Remove pops the tuple with minimal key (distance first, then final,
// lifted and the rest), unless that distance is above the ceiling. The
// overflow dictionary applies the same ceiling to itself.
func (dd *Dict) Remove() (Tuple, bool) {
	for dd.cursor < len(dd.buckets) && dd.cursor <= dd.ceil {
		b := &dd.buckets[dd.cursor]
		if n := len(b.final); n > 0 {
			e := b.final[n-1]
			b.final = b.final[:n-1]
			dd.size--
			return e.tuple(dd.cursor, true), true
		}
		if dd.cursor < len(dd.lifted) {
			if l := &dd.lifted[dd.cursor]; len(*l) > 0 {
				e := (*l)[len(*l)-1]
				*l = (*l)[:len(*l)-1]
				dd.size--
				return e.tuple(dd.cursor, false), true
			}
		}
		if n := len(b.nonFinal); n > 0 {
			e := b.nonFinal[n-1]
			b.nonFinal = b.nonFinal[:n-1]
			dd.size--
			return e.tuple(dd.cursor, false), true
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

// Reset restores the dictionary to its empty, ceiling-free state while
// retaining the bucket array and every per-bucket slice capacity, so a pooled
// reuse inserts on the steady path without allocating. Entries hold no
// pointers, so truncating the slices pins no garbage. The rare out-of-range
// overflow dictionary is dropped rather than recycled (it only exists under
// extreme custom costs, and its map+heap does not reset cheaply). The argument, once the
// final-first ablation switch, is ignored; the signature survives only
// because benchmark/layers calls it (ROADMAP item 8 drops it there).
func (dd *Dict) Reset(_ bool) {
	for i := range dd.buckets {
		b := &dd.buckets[i]
		b.final = b.final[:0]
		b.nonFinal = b.nonFinal[:0]
	}
	for i := range dd.lifted {
		dd.lifted[i] = dd.lifted[i][:0]
	}
	dd.cursor = 0
	dd.ceil = noCeiling
	dd.overflow = nil
	dd.size = 0
}

// MinDistance returns the smallest distance present, if any, parked entries
// included. GetNext uses it to decide when to pull the next batch of initial
// nodes ("no distance 0 tuples in D_R", §3.4 lines 15–17), which parked
// entries, all above a ceiling ψ ≥ 0, never affect; the distance-aware driver
// reads the smallest parked distance from it once a phase has drained.
func (dd *Dict) MinDistance() (int32, bool) {
	for dd.cursor < len(dd.buckets) {
		b := &dd.buckets[dd.cursor]
		if len(b.final) > 0 || len(b.nonFinal) > 0 || dd.cursor < len(dd.lifted) && len(dd.lifted[dd.cursor]) > 0 {
			return int32(dd.cursor), true
		}
		dd.cursor++
	}
	if dd.overflow != nil {
		return dd.overflow.MinDistance()
	}
	return 0, false
}

// Memory accounting (§ memory governance). Every structure reports its
// resident footprint in bytes so the evaluator can aggregate per-execution
// live bytes and enforce the hard watermark. The figures are capacity-based
// estimates from fixed per-entry sizes — close enough to steer budget aborts,
// cheap enough to sample on the hot path.
const (
	tupleMem    = 24 // Tuple: 4×int32 + bool + uint32 slot (RefDict stores these)
	entryMem    = 16 // entry: 3×int32 + uint32 slot (Dict stores these)
	bucketMem   = 48 // bucket: two slice headers
	sliceMem    = 24 // one slice header (a lifted list)
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
		n += int64(cap(b.final)+cap(b.nonFinal)) * entryMem
	}
	if dd.lifted != nil {
		n += int64(cap(dd.lifted)) * sliceMem
		for _, l := range dd.lifted {
			n += int64(cap(l)) * entryMem
		}
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

// SeedVisited is visited_R for a search from constant seeds — Case 1 of
// Open, where every tuple's v is one of a few seed nodes: one bit per
// (seed ordinal, state, node), the product a single-source RPQ search walks,
// in place of a hashed slot per processed triple. The bits of one seed and
// state form a row over the node IDs, so the neighbours a transition reaches
// from one node probe one row. The bitmap is paged: a page of pageBits bits
// is allocated on its first Add, from a slice that keeps every page touched
// since the last Reset, and a directory maps each page of the full
// seeds × states × nodes bitmap to its place there. Memory is the directory,
// 4 bytes per page, plus the pages the search touched, and Reset costs the
// touched pages, not the bitmap's span.
type SeedVisited struct {
	seeds  []graph.NodeID // ordinal i is seeds[i]
	nodes  int
	states int

	dir     []int32  // page → 1 + its slot in words; 0 = untouched
	words   []uint64 // the touched pages, pageWords words each, in touch order
	touched []int32  // the page in each slot of words, to clear dir by
	n       int
}

const (
	pageShift = 9 // a page is 512 bits, 64 bytes: one cache line
	pageBits  = 1 << pageShift
	pageWords = pageBits / 64
)

// Reset empties the set and shapes it for a search from seeds over nodes
// graph nodes and states automaton states. It clears only the pages the last
// search touched, and retains every slice's capacity, so a pooled reuse that
// fits them allocates nothing.
func (sv *SeedVisited) Reset(seeds []graph.NodeID, nodes int, states int32) {
	for _, p := range sv.touched {
		sv.dir[p] = 0
	}
	sv.touched, sv.words, sv.n = sv.touched[:0], sv.words[:0], 0
	sv.seeds = append(sv.seeds[:0], seeds...)
	sv.nodes, sv.states = nodes, int(states)
	// Every directory entry within its capacity is zero again, so a
	// reslice needs no clearing.
	pages := (len(seeds)*sv.states*nodes + pageBits - 1) >> pageShift
	if cap(sv.dir) < pages {
		sv.dir = make([]int32, pages)
	}
	sv.dir = sv.dir[:pages]
}

// bit returns the bit of (v, n, s), or false when v is not a seed.
func (sv *SeedVisited) bit(v, n graph.NodeID, s int32) (int, bool) {
	for i, sd := range sv.seeds {
		if sd == v {
			return (i*sv.states+int(s))*sv.nodes + int(n), true
		}
	}
	return 0, false
}

// Add inserts (v, n, s), reporting whether it was newly added. v must be one
// of the seeds Reset was given.
func (sv *SeedVisited) Add(v, n graph.NodeID, s int32) bool {
	b, ok := sv.bit(v, n, s)
	if !ok {
		panic("dstruct: SeedVisited.Add from a node that is not a seed")
	}
	p := b >> pageShift
	slot := sv.dir[p]
	if slot == 0 {
		sv.words = append(sv.words, make([]uint64, pageWords)...)
		sv.touched = append(sv.touched, int32(p))
		slot = int32(len(sv.touched))
		sv.dir[p] = slot
	}
	w := &sv.words[int(slot-1)*pageWords+b>>6&(pageWords-1)]
	m := uint64(1) << (b & 63)
	if *w&m != 0 {
		return false
	}
	*w |= m
	sv.n++
	return true
}

// Contains reports whether (v, n, s) has been processed.
func (sv *SeedVisited) Contains(v, n graph.NodeID, s int32) bool {
	b, ok := sv.bit(v, n, s)
	if !ok {
		return false
	}
	slot := sv.dir[b>>pageShift]
	return slot != 0 && sv.words[int(slot-1)*pageWords+b>>6&(pageWords-1)]&(1<<(b&63)) != 0
}

// Len returns the number of stored triples.
func (sv *SeedVisited) Len() int { return sv.n }

// Bytes returns the approximate resident footprint of the set: the
// capacities of its directory, pages and touch list.
func (sv *SeedVisited) Bytes() int64 {
	return int64(cap(sv.dir)+cap(sv.touched)+cap(sv.seeds))*4 + int64(cap(sv.words))*8
}

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

// StateMemo holds a two-bit value per (node, state) configuration of a
// product search, all zero after Reset. It is paged like SeedVisited — a page
// of pageBits bits, 256 configurations, is allocated on its first nonzero
// write — but its directory is an open-addressed table over the touched pages
// alone, so its memory follows what a search touches, never the
// nodes × states span.
type StateMemo struct {
	nodes   int
	dir     []uint64 // (page+1)<<32 | 1+its slot in words; 0 = empty
	words   []uint64 // the touched pages, pageWords words each, in touch order
	touched []int32  // the page in each slot of words
}

// memoMinDir is the directory size of a memo's first page; a power of two.
const memoMinDir = 16

// Reset empties the memo and shapes it for configurations over nodes graph
// nodes. It clears what the last use touched and keeps every capacity.
func (m *StateMemo) Reset(nodes int) {
	if 4*len(m.touched) < len(m.dir) {
		for _, p := range m.touched {
			m.unlink(int(p))
		}
	} else {
		clear(m.dir)
	}
	m.touched, m.words, m.nodes = m.touched[:0], m.words[:0], nodes
}

// unlink empties the directory slots from page p's home up to the next empty
// one; done for every touched page it empties the directory (see
// U64Set.blankCluster).
func (m *StateMemo) unlink(p int) {
	mask := len(m.dir) - 1
	for i := memoHash(p) & mask; m.dir[i] != 0; i = (i + 1) & mask {
		m.dir[i] = 0
	}
}

func memoHash(p int) int { return int(uint32(p) * 0x9E3779B1 >> 8) }

// slot returns 1 + the word offset of page p, or 0 when p is untouched.
func (m *StateMemo) slot(p int) int {
	if len(m.dir) == 0 {
		return 0
	}
	mask := len(m.dir) - 1
	for i := memoHash(p) & mask; ; i = (i + 1) & mask {
		e := m.dir[i]
		if e == 0 {
			return 0
		}
		if int(e>>32) == p+1 {
			return int(uint32(e))
		}
	}
}

// Get returns the value of (n, s).
func (m *StateMemo) Get(n graph.NodeID, s int32) uint8 {
	b := 2 * (int(s)*m.nodes + int(n))
	slot := m.slot(b >> pageShift)
	if slot == 0 {
		return 0
	}
	return uint8(m.words[slot-1+b>>6&(pageWords-1)] >> (b & 63) & 3)
}

// Set sets the value of (n, s) to v, which is below 4.
func (m *StateMemo) Set(n graph.NodeID, s int32, v uint8) {
	b := 2 * (int(s)*m.nodes + int(n))
	p := b >> pageShift
	slot := m.slot(p)
	if slot == 0 {
		if v == 0 {
			return
		}
		slot = m.addPage(p)
	}
	w := &m.words[slot-1+b>>6&(pageWords-1)]
	*w = *w&^(3<<(b&63)) | uint64(v)<<(b&63)
}

// addPage allocates page p, growing the directory to keep it at most half
// full, and returns its slot.
func (m *StateMemo) addPage(p int) int {
	if 2*(len(m.touched)+1) > len(m.dir) {
		old := m.dir
		m.dir = make([]uint64, max(memoMinDir, 2*len(old)))
		for _, e := range old {
			if e != 0 {
				m.link(int(e>>32)-1, e)
			}
		}
	}
	slot := len(m.words) + 1
	m.words = append(m.words, make([]uint64, pageWords)...)
	m.touched = append(m.touched, int32(p))
	m.link(p, uint64(p+1)<<32|uint64(slot))
	return slot
}

// link stores directory entry e for page p.
func (m *StateMemo) link(p int, e uint64) {
	mask := len(m.dir) - 1
	i := memoHash(p) & mask
	for m.dir[i] != 0 {
		i = (i + 1) & mask
	}
	m.dir[i] = e
}

// Bytes returns the approximate resident footprint of the memo.
func (m *StateMemo) Bytes() int64 {
	return int64(cap(m.dir)+cap(m.words))*8 + int64(cap(m.touched))*4
}
