package core

import (
	"math"
	"slices"
	"time"

	"clockwork/internal/modelzoo"
	"clockwork/internal/simclock"
)

// This file holds the scheduler's hot-path indexes. The paper's
// scheduler conceptually maintains "a single queue of strategies ordered
// by required start time" and a load-priority order over models
// (Appendix B); the seed implementation recomputed both orders by
// scanning every active model on every pass, which is O(models) per GPU
// per pass and collapses at Fig 8 scale. The controller now maintains:
//
//   - per-GPU strategy heaps: for every model with queued work on a GPU,
//     one entry keyed by the required start time of its best feasible
//     (model, batch) strategy. Entries are invalidated by a per-model
//     stamp that the controller bumps on every event that can change a
//     strategy (queue mutation, estimate observation, residency change),
//     and lazily re-keyed on pop, so a scheduling decision is O(log n)
//     amortised instead of O(models-with-work).
//   - the load candidates, the active models whose load priority p_m
//     is positive: a demand-ordered treap of the cold ones (no replica,
//     so p_m = d_m with no ℓ_g term) and an unordered set of the
//     replicated ones. Each model's sign is settled with the exact
//     loadPriority against the incrementally maintained ℓ_g whenever it
//     changes, and when ℓ_g of a GPU hosting it moves past the level at
//     which its p_m ≤ 0 was proven (clearLoad, flushLoadSigns). bestLoad
//     takes the cold treap's first model and evaluates each positive
//     one's p_m afresh: no model is ever keyed by its priority.
//   - a deadline-ordered treap (enabled only for the LoadOldestFirst
//     ablation policy) over active models keyed by earliest queued
//     deadline.
//
// The invariant all of this rests on: reindexModel is the only writer
// of the indexes, of ℓ_g and of the candidate sets, and every mutation
// of a model's demand, activity or replica set is followed by
// reindexModel(mi) before the scheduler runs again.
//
// Determinism: all index orders break ties by model registration
// sequence, which makes selection deterministic where the seed's map
// iteration made equal-key choices depend on Go's map order.

// ---- per-model invalidation ----

// reindexModel re-synchronises every index with mi's current state. The
// controller calls it after any mutation that can affect scheduling:
// request enqueue, batch pop, cancellation, estimate observation, and
// residency changes. Cost: O(replicas + log models).
func (c *Controller) reindexModel(mi *ModelInfo) {
	mi.stamp++

	// ℓ_g maintenance: retract mi's previous per-GPU allocated-demand
	// contribution and apply the current one (Appendix B computes
	// ℓ_g = Σ_m a_{m,g} with a_{m,g} = d_m / |replicas(m)| over active
	// models; shares use the same integer division as the seed's scan).
	// Every GPU whose ℓ_g moves is reported to the gate; a call that
	// leaves share and replica set as they were (an estimate
	// observation, a LOAD landing) moves nothing.
	active := len(mi.queue) > 0
	var share time.Duration
	var hosts []*GPUMirror
	if active && mi.demand > 0 && len(mi.residentOn) > 0 {
		share = mi.demand / time.Duration(len(mi.residentOn))
		hosts = mi.residentOn
	}
	if share != mi.loadShare || !slices.Equal(hosts, mi.sharedOn) {
		for _, g := range mi.sharedOn {
			g.allocDemand -= mi.loadShare
		}
		for _, g := range hosts {
			g.allocDemand += share
		}
		// Judge each ℓ_g where it ended up, not half-way through.
		for _, g := range mi.sharedOn {
			c.noteLoadMoved(g)
		}
		mi.sharedOn = mi.sharedOn[:0]
		mi.loadShare = share
		for _, g := range hosts {
			c.noteLoadMoved(g)
			mi.sharedOn = append(mi.sharedOn, g)
		}
	}
	c.settleLoadSign(mi, active)

	// Deadline index (ablation load policy only).
	if c.deadlineIdxOn {
		if active {
			c.deadlineIdx.update(mi, &mi.deadlineNode, int64(mi.MinDeadline()))
		} else {
			c.deadlineIdx.remove(&mi.deadlineNode)
		}
	}

	// Strategy entries: one fresh entry per GPU where mi has work. Old
	// entries for mi (previous stamps) become garbage and are discarded
	// lazily when popped, or swept by compaction.
	if active {
		now := c.eng.Now()
		for _, g := range mi.residentOn {
			batch, _, rs := c.inferCandidate(g, mi, now)
			if batch == 0 {
				continue // infeasible until the next stamp bump
			}
			g.pushStrategy(stratEntry{mi: mi, key: rs, stamp: mi.stamp})
		}
	}
}

// ---- load priority and the nothing-to-load gate ----

// fulfilled is one replica's term of Appendix B's priority: the share of
// demand a GPU whose allocated demand is l absorbs over the load
// horizon. For fixed share it is monotone non-increasing in l — float
// conversion, division and truncation all are — which is what the
// gate's ceilings below rest on.
func (c *Controller) fulfilled(share, l time.Duration) time.Duration {
	if l <= 0 {
		l = time.Nanosecond
	}
	return time.Duration(float64(share) * float64(c.cfg.LoadHorizon) / float64(l))
}

// loadPriority computes Appendix B's p_m = d_m − Σ_g a_{m,g} ·
// capacity_g / ℓ_g from the incrementally maintained per-GPU loads.
// bestLoad and the sign settlement below both call it, so they cannot
// disagree about a sign.
//
// No "will the load land before the current deadlines" filter: demand
// is a *rate* signal. Under a tight SLO every queued request may expire
// before the transfer lands, yet sustained demand means the load pays
// off for the arrivals right behind them — filtering here deadlocks
// cold models forever.
func (c *Controller) loadPriority(mi *ModelInfo) time.Duration {
	return c.loadPriorityAt(mi, 1)
}

// loadPriorityAt is mi's priority with every hosting GPU's ℓ_g grown by
// the factor headroom: at 1 the priority as it is, above 1 what it would
// become if all of them filled up that far.
func (c *Controller) loadPriorityAt(mi *ModelInfo, headroom float64) time.Duration {
	c.priorityEvals++
	p := mi.demand
	if n := len(mi.residentOn); n > 0 {
		share := mi.demand / time.Duration(n)
		for _, g := range mi.residentOn {
			p -= c.fulfilled(share, g.loadLevel(headroom))
		}
	}
	return p
}

// loadLevel is ℓ_g grown by headroom (exactly ℓ_g at 1), saturating far
// below overflow.
func (g *GPUMirror) loadLevel(headroom float64) time.Duration {
	if headroom <= 1 {
		return g.allocDemand
	}
	const limit = math.MaxInt64 / 2
	if l := float64(g.allocDemand) * headroom; l < limit {
		return time.Duration(l)
	}
	return limit
}

// loadSign says which load-candidate set a model is in.
type loadSign uint8

const (
	signNone     loadSign = iota // inactive, no demand, or replicated with p_m ≤ 0
	signCold                     // active, demand > 0, no replica: p_m = d_m > 0
	signPositive                 // active, replicated, exact p_m > 0
)

// settleLoadSign recomputes mi's sign on the current state (active says
// whether mi has queued requests) and moves mi into the matching set: the
// cold index, keyed by demand so that its first model is the one of
// highest demand and then lowest registration seq, or the positive set.
// A replicated model found at p_m ≤ 0 also records how long that verdict
// keeps: see clearLoad.
func (c *Controller) settleLoadSign(mi *ModelInfo, active bool) {
	sign := signNone
	if active && mi.demand > 0 {
		if len(mi.residentOn) == 0 {
			sign = signCold
		} else if p := c.loadPriority(mi); p > 0 {
			sign = signPositive
		} else {
			c.clearLoad(mi, p)
		}
	}
	if sign == signCold {
		c.coldIdx.update(mi, &mi.coldNode, -int64(mi.demand))
	} else {
		c.coldIdx.remove(&mi.coldNode)
	}
	if sign == signPositive && mi.posAt == 0 {
		c.posSet = append(c.posSet, mi)
		mi.posAt = len(c.posSet)
	} else if sign != signPositive && mi.posAt != 0 {
		last := len(c.posSet) - 1
		moved := c.posSet[last]
		c.posSet[mi.posAt-1], moved.posAt = moved, mi.posAt
		c.posSet[last] = nil
		c.posSet = c.posSet[:last]
		mi.posAt = 0
	}
	mi.loadSign = sign
}

// clearLoad records for how long mi's just-computed p_m = p ≤ 0 keeps.
// p_m only rises when a hosting GPU's ℓ_g rises (fulfilled is monotone),
// so if p_m is still ≤ 0 with every hosting ℓ_g grown by some headroom,
// it is ≤ 0 for every combination of loads below those levels, and mi
// need not be evaluated again until one of its GPUs fills past its
// level. The levels go into mi.clearedTo (parallel to residentOn), and
// each GPU keeps the lowest level any of its models was cleared to
// (loadCeil) as the O(1) trigger. The headroom tried is the one that
// would bring p_m to about zero — Σ fulfilled = d_m − p scales as
// 1/headroom — less a 1/64 margin for truncation; it is then *checked*
// with the exact arithmetic, and a headroom that fails the check is
// dropped for none at all (cleared to the present ℓ_g only), so the
// margin decides how soon a model is revisited, never a sign.
func (c *Controller) clearLoad(mi *ModelInfo, p time.Duration) {
	headroom := float64(mi.demand-p) / float64(mi.demand) * (63.0 / 64)
	if headroom <= 1 || c.loadPriorityAt(mi, headroom) > 0 {
		headroom = 1
	}
	if mi.clearedTo == nil {
		mi.clearedTo = make([]time.Duration, 0, replicaRoom)
	}
	mi.clearedTo = mi.clearedTo[:0]
	for _, g := range mi.residentOn {
		level := g.loadLevel(headroom)
		mi.clearedTo = append(mi.clearedTo, level)
		if level < g.loadCeil {
			g.loadCeil = level
		}
	}
}

// stillCleared reports whether mi's last p_m ≤ 0 verdict still stands:
// nothing about mi changed since (any change re-settles it through
// reindexModel) and every hosting GPU is at or under the level mi was
// cleared to. It returns the level for g.
func (mi *ModelInfo) stillCleared(g *GPUMirror) (level time.Duration, ok bool) {
	if mi.loadSign != signNone || len(mi.clearedTo) != len(mi.residentOn) {
		return 0, false
	}
	for i, r := range mi.residentOn {
		if r.allocDemand > mi.clearedTo[i] {
			return 0, false
		}
		if r == g {
			level = mi.clearedTo[i]
		}
	}
	return level, true
}

// noteLoadMoved is called for each GPU whose ℓ_g a reindex moved. The
// models sharing g need another look if ℓ_g rose past the lowest level
// one of them was cleared to, or — ℓ_g may have fallen — if some
// replicated model somewhere is in the positive set and might no longer
// belong there. O(1); the dirty list is bounded by the GPU count.
func (c *Controller) noteLoadMoved(g *GPUMirror) {
	if !g.loadDirty && (g.allocDemand > g.loadCeil || len(c.posSet) > 0) {
		g.loadDirty = true
		c.dirtyGPUs = append(c.dirtyGPUs, g)
	}
}

// anythingToLoad is the nothing-to-load gate: it reports whether any
// active model has a positive load priority right now. A cold active
// model answers yes without arithmetic (and without flushing);
// otherwise the dirty GPUs are flushed first, so a no means every
// active model is either freshly evaluated ≤ 0 or cleared ≤ 0 up to
// levels its GPUs are still under.
func (c *Controller) anythingToLoad() bool {
	if c.coldIdx.Len() > 0 {
		return true
	}
	c.flushLoadSigns()
	return len(c.posSet) > 0
}

// flushLoadSigns looks again at the active models resident on each
// dirty GPU — exactly its withWork set — and rebuilds the GPU's ceiling
// from them: a model whose clearance still stands costs a comparison
// per replica, the others are re-settled with the exact arithmetic.
// Set and ceiling updates commute, so the slice order does not matter.
func (c *Controller) flushLoadSigns() {
	for _, g := range c.dirtyGPUs {
		g.loadDirty = false
		g.loadCeil = math.MaxInt64
		for _, mi := range g.withWork {
			if level, ok := mi.stillCleared(g); !ok {
				c.settleLoadSign(mi, true)
			} else if level < g.loadCeil {
				g.loadCeil = level
			}
		}
	}
	c.dirtyGPUs = c.dirtyGPUs[:0]
}

// inferCandidate picks mi's best feasible (batch, earliest, requiredStart)
// strategy on g at instant now: the largest compiled batch not exceeding
// the queue whose execution estimate still meets the oldest request's
// deadline — exactly the seed scheduler's per-model inner loop, factored
// out so the indexed and linear selection paths share it.
func (c *Controller) inferCandidate(g *GPUMirror, mi *ModelInfo, now simclock.Time) (batch int, earliest, requiredStart simclock.Time) {
	readyAt, ok := g.Resident(mi)
	if !ok || mi.QueuedCount() == 0 {
		return 0, 0, simclock.MaxTime
	}
	start := simclock.Max(now, g.ExecFreeAt)
	start = simclock.Max(start, readyAt)
	for _, b := range descBatches {
		if b > mi.QueuedCount() {
			continue
		}
		if mi.capped > 0 && mi.CapBatch(b) < b {
			continue // a request in this batch caps it below b
		}
		est := c.EstimateExec(mi, b)
		deadline := mi.MinDeadlineOfOldest(b)
		if start.Add(est) > deadline {
			continue // batch too slow for its oldest request
		}
		return b, start, deadline.Add(-est)
	}
	return 0, 0, simclock.MaxTime
}

// descBatches holds the compiled batch sizes, largest first.
var descBatches = func() []int {
	n := len(modelzoo.BatchSizes)
	desc := make([]int, n)
	for i, b := range modelzoo.BatchSizes {
		desc[n-1-i] = b
	}
	return desc
}()

// enableDeadlineIndex turns on MinDeadline-ordered indexing of active
// models; the LoadOldestFirst ablation policy opts in at Attach time so
// the default path never pays the O(queue) MinDeadline recomputation.
// Enabling it later indexes the models that are already active.
func (c *Controller) enableDeadlineIndex() {
	if c.deadlineIdxOn {
		return
	}
	c.deadlineIdxOn = true
	for _, mi := range c.modelList {
		if len(mi.queue) > 0 {
			c.deadlineIdx.update(mi, &mi.deadlineNode, int64(mi.MinDeadline()))
		}
	}
}

// ---- per-GPU strategy heap ----

// stratEntry is one model's candidate strategy on one GPU. key is the
// strategy's required start time as computed when the entry was pushed;
// required start only grows between stamp bumps (estimates and deadlines
// are fixed within a stamp epoch and the start lower bound max(now,
// ExecFreeAt, readyAt) is monotone — the one event that lowers it, LOAD
// completion, bumps the stamp), so a stored key is always a lower bound
// on the entry's current required start. That makes the classic lazy
// re-keying heap exact: pop the minimum, recompute, and either the key
// is unchanged (global minimum found) or the entry is pushed back with
// its larger key.
type stratEntry struct {
	mi    *ModelInfo
	key   simclock.Time
	stamp uint64
}

// stratHeap orders entries by (required start, model registration
// sequence) — deterministic where the seed's map scan was not. It is a
// hand-rolled binary heap rather than container/heap: the stdlib
// interface passes elements as `any`, which boxes the three-word
// stratEntry on every Push/Pop — two heap allocations per scheduler
// decision that this hot path cannot afford.
type stratHeap []stratEntry

func (h stratHeap) less(i, j int) bool {
	if h[i].key != h[j].key {
		return h[i].key < h[j].key
	}
	return h[i].mi.seq < h[j].mi.seq
}

func (h stratHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (h stratHeap) down(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && h.less(r, l) {
			m = r
		}
		if !h.less(m, i) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// push adds e, restoring heap order.
func (h *stratHeap) push(e stratEntry) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

// popTop removes the minimum entry (index 0).
func (h *stratHeap) popTop() {
	old := *h
	n := len(old) - 1
	old[0] = old[n]
	old[n] = stratEntry{}
	*h = old[:n]
	if n > 0 {
		h.down(0)
	}
}

// fixTop restores order after the top entry's key was rewritten in
// place (lazy re-keying only ever grows keys, so sift down suffices).
func (h stratHeap) fixTop() { h.down(0) }

// reinit heapifies after a bulk rewrite (compaction).
func (h stratHeap) reinit() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// pushStrategy adds a fresh entry, compacting the heap first when stale
// entries (stamp-mismatched leftovers of earlier pushes) dominate. At
// most one entry per model carries the current stamp, so live entries
// are bounded by |withWork|.
func (g *GPUMirror) pushStrategy(e stratEntry) {
	if len(g.stratQ) > 64 && len(g.stratQ) > 4*(len(g.withWork)+1) {
		g.compactStrategies()
	}
	g.stratQ.push(e)
}

// compactStrategies rebuilds the heap keeping only current-stamp entries.
func (g *GPUMirror) compactStrategies() {
	live := g.stratQ[:0]
	for _, e := range g.stratQ {
		if e.stamp == e.mi.stamp {
			live = append(live, e)
		}
	}
	for i := len(live); i < len(g.stratQ); i++ {
		g.stratQ[i] = stratEntry{}
	}
	g.stratQ = live
	g.stratQ.reinit()
}

// ---- ordered model index (treap) ----

// modelTreap is a balanced ordered index over models, keyed by an int64
// ascending with model registration sequence as tie-break (the cold
// index keys by negated demand). Node priorities are a deterministic
// hash of the sequence, so the tree shape — and therefore iteration
// order and timing — is identical across runs.
type modelTreap struct {
	root *treapNode
	size int
	// free recycles detached nodes: every demand change re-keys a model
	// (remove + insert), which would otherwise allocate a node per
	// queue mutation.
	free []*treapNode
}

type treapNode struct {
	mi   *ModelInfo
	key  int64
	prio uint64
	l, r *treapNode
}

func (t *modelTreap) less(a, b *treapNode) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.mi.seq < b.mi.seq
}

// update inserts mi (or re-keys it) so the index reflects newKey.
// *slot is the per-model node handle owned by this index.
func (t *modelTreap) update(mi *ModelInfo, slot **treapNode, newKey int64) {
	if n := *slot; n != nil {
		if n.key == newKey {
			return
		}
		t.remove(slot)
	}
	var n *treapNode
	if m := len(t.free); m > 0 {
		n, t.free = t.free[m-1], t.free[:m-1]
		*n = treapNode{mi: mi, key: newKey, prio: splitmix64(mi.seq)}
	} else {
		n = &treapNode{mi: mi, key: newKey, prio: splitmix64(mi.seq)}
	}
	*slot = n
	t.root = t.insert(t.root, n)
	t.size++
}

// remove detaches the node held in *slot, if any, and recycles it.
func (t *modelTreap) remove(slot **treapNode) {
	n := *slot
	if n == nil {
		return
	}
	t.root = t.delete(t.root, n)
	*n = treapNode{}
	t.free = append(t.free, n)
	*slot = nil
	t.size--
}

func (t *modelTreap) insert(root, n *treapNode) *treapNode {
	if root == nil {
		return n
	}
	if t.less(n, root) {
		root.l = t.insert(root.l, n)
		if root.l.prio < root.prio {
			root = rotateRight(root)
		}
	} else {
		root.r = t.insert(root.r, n)
		if root.r.prio < root.prio {
			root = rotateLeft(root)
		}
	}
	return root
}

func (t *modelTreap) delete(root, n *treapNode) *treapNode {
	if root == nil {
		return nil
	}
	if root == n {
		return t.merge(root.l, root.r)
	}
	if t.less(n, root) {
		root.l = t.delete(root.l, n)
	} else {
		root.r = t.delete(root.r, n)
	}
	return root
}

func (t *modelTreap) merge(l, r *treapNode) *treapNode {
	if l == nil {
		return r
	}
	if r == nil {
		return l
	}
	if l.prio < r.prio {
		l.r = t.merge(l.r, r)
		return l
	}
	r.l = t.merge(l, r.l)
	return r
}

func rotateRight(n *treapNode) *treapNode {
	l := n.l
	n.l = l.r
	l.r = n
	return l
}

func rotateLeft(n *treapNode) *treapNode {
	r := n.r
	n.r = r.l
	r.l = n
	return r
}

// Len returns the number of indexed models.
func (t *modelTreap) Len() int { return t.size }

// First returns the first model in index order, or nil.
func (t *modelTreap) First() *ModelInfo {
	n := t.root
	if n == nil {
		return nil
	}
	for n.l != nil {
		n = n.l
	}
	return n.mi
}

// Scan visits models in index order until cb returns false.
func (t *modelTreap) Scan(cb func(mi *ModelInfo) bool) {
	t.walk(t.root, cb)
}

func (t *modelTreap) walk(n *treapNode, cb func(mi *ModelInfo) bool) bool {
	if n == nil {
		return true
	}
	if !t.walk(n.l, cb) {
		return false
	}
	if !cb(n.mi) {
		return false
	}
	return t.walk(n.r, cb)
}

// splitmix64 is the standard 64-bit mixer; used for deterministic treap
// priorities derived from model registration order.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
