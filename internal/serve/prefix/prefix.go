// Package prefix is the shared-prefix KV index of the serving layer: a
// deterministic radix trie over token-ID prefixes with block-granular
// matching, refcounted copy-on-write shared blocks, and LRU-by-virtual-
// time eviction of blocks whose refcount has dropped to zero.
//
// The index models what production engines call prefix caching (vLLM's
// automatic prefix caching, SGLang's RadixAttention): requests whose
// prompts share a leading token sequence — system prompts, conversation
// history, tool preambles — reuse the KV state of that prefix instead of
// re-prefilling it. The serving loop probes the index at admission,
// charges prefill only for the uncached suffix, and grafts the request's
// own block-aligned prefix back in so later requests can hit it.
//
// Structure. Every node holds a span of whole blocks (BlockSize tokens
// each; the root holds the empty span). Children are kept in a slice
// sorted lexicographically by their leading block and found by binary
// search — no maps anywhere, so iteration order can never leak into
// results and Clone is trivially deterministic. An insertion that
// diverges (or ends) mid-span splits the node copy-on-write: the span's
// token storage is resliced, never copied, and the split preserves the
// total block count, resident bytes, and every refcount — the invariant
// the property tests pin.
//
// Sharing and lifetime. A request that admits against the index leases
// its matched path: every fully covered node's refcount is incremented,
// and decremented again by Release when the request retires. A leased
// node is never evictable, so a shared block is always either live
// (refcount > 0) or sitting in the LRU list awaiting eviction — the
// extended end-of-run leak check walks the trie and verifies exactly
// that. Evictable nodes (refcount 0, no children) form an intrusive
// doubly-linked list ordered by last use in simulated virtual time;
// EvictOne pops the least recently used. The list order is maintained
// by the deterministic single-goroutine event loop, so eviction order
// is a pure function of the event history.
//
// The index performs no real memory management: blocks are simulated
// bytes, accounted once per resident block regardless of how many
// requests lease them. The serving loop mirrors ResidentBytes into its
// memsim.System so shared prefix KV occupies (simulated) GPU headroom
// exactly once.
package prefix

import "fmt"

// node is one radix-trie node: a span of whole blocks plus its sorted
// children. The zero ref, nil links state is an unleased leaf.
type node struct {
	// tokens is the node's span — whole blocks only; the root's is empty.
	// Splits reslice this storage, they never copy it (the copy-on-write
	// half of the COW contract: block payloads are shared, structure is
	// rewritten).
	tokens []int
	// children is sorted lexicographically by each child's leading block;
	// the radix invariant guarantees leading blocks are unique under one
	// parent.
	children []*node
	parent   *node
	// ref counts the active leases whose matched path fully covers this
	// node. A node with ref > 0 is pinned: it cannot be evicted.
	ref int
	// prev/next link the node into the evictable LRU list while it is a
	// refcount-0 leaf; inLRU tracks membership.
	prev, next *node
	inLRU      bool
	// lastUse is the virtual time of the node's last lease release or
	// insertion — diagnostic only; the intrusive list order is the policy.
	lastUse float64
}

// blocks returns the node's span length in blocks.
func (n *node) blocks(blockSize int) int { return len(n.tokens) / blockSize }

// Index is a deterministic block-granular radix trie over token-ID
// prefixes. It is single-goroutine, like the serving loop that owns it.
type Index struct {
	blockSize  int
	blockBytes int64
	// budget caps resident bytes; Insert evicts LRU refcount-0 blocks to
	// stay within it and truncates the insertion when eviction cannot
	// make room.
	budget   int64
	resident int64
	root     *node
	// lruHead is the least recently used evictable node, lruTail the most
	// recently used.
	lruHead, lruTail *node

	// hits/misses/cachedTokens are probe-outcome counters maintained by
	// the owner via CountProbe — kept here so forks carry them.
	hits, misses int
	cachedTokens int64
}

// NewIndex returns an empty index over blockSize-token blocks, each
// accounting blockBytes simulated bytes, with resident bytes capped at
// budget. All three must be positive.
func NewIndex(blockSize int, blockBytes, budget int64) *Index {
	if blockSize <= 0 {
		panic(fmt.Sprintf("prefix: block size must be positive, got %d", blockSize))
	}
	if blockBytes <= 0 {
		panic(fmt.Sprintf("prefix: block bytes must be positive, got %d", blockBytes))
	}
	if budget <= 0 {
		panic(fmt.Sprintf("prefix: byte budget must be positive, got %d", budget))
	}
	return &Index{blockSize: blockSize, blockBytes: blockBytes, budget: budget, root: &node{}}
}

// BlockSize returns the matching granularity in tokens.
func (x *Index) BlockSize() int { return x.blockSize }

// Budget returns the resident-byte cap.
func (x *Index) Budget() int64 { return x.budget }

// ResidentBytes returns the simulated bytes of all resident blocks —
// each shared block accounted exactly once.
func (x *Index) ResidentBytes() int64 { return x.resident }

// Stats returns the lifetime probe counters: hits, misses, and total
// cached tokens, as recorded through CountProbe.
func (x *Index) Stats() (hits, misses int, cachedTokens int64) {
	return x.hits, x.misses, x.cachedTokens
}

// CountProbe records one admission probe outcome: cached is the matched
// token count the admission was discounted by.
func (x *Index) CountProbe(cached int) {
	if cached > 0 {
		x.hits++
		x.cachedTokens += int64(cached)
	} else {
		x.misses++
	}
}

// cmpBlock compares two blocks (slices of exactly blockSize tokens)
// lexicographically.
//
//alisa:hotpath
func cmpBlock(a, b []int) int {
	for i := range a {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}

// findChild binary-searches n's sorted children for the one whose span
// leads with block, returning its slot and whether it exists; on a miss
// the slot is the insertion point.
//
//alisa:hotpath
func (x *Index) findChild(n *node, block []int) (int, bool) {
	lo, hi := 0, len(n.children)
	for lo < hi {
		mid := (lo + hi) / 2
		switch cmpBlock(n.children[mid].tokens[:x.blockSize], block) {
		case -1:
			lo = mid + 1
		case 0:
			return mid, true
		default:
			hi = mid
		}
	}
	return lo, false
}

// matchedBlocks counts how many whole leading blocks of query the node's
// span matches.
//
//alisa:hotpath
func (x *Index) matchedBlocks(n *node, query []int) int {
	limit := len(n.tokens)
	if len(query) < limit {
		limit = len(query)
	}
	limit -= limit % x.blockSize
	m := 0
	for m < limit && n.tokens[m] == query[m] {
		m++
	}
	return m / x.blockSize
}

// Probe returns how many leading tokens of tokens are resident, in whole
// blocks. It is read-only — no recency update, no counter update — and
// allocation-free, which the steady-state probe guards pin at 0
// allocs/op.
//
//alisa:hotpath
func (x *Index) Probe(tokens []int) int {
	cur := x.root
	matched := 0
	for {
		rest := tokens[matched:]
		if len(rest) < x.blockSize {
			return matched
		}
		slot, ok := x.findChild(cur, rest[:x.blockSize])
		if !ok {
			return matched
		}
		c := cur.children[slot]
		m := x.matchedBlocks(c, rest)
		matched += m * x.blockSize
		if m < c.blocks(x.blockSize) {
			return matched
		}
		cur = c
	}
}

// Lease pins the resident path covering tokens: every node whose span is
// fully matched has its refcount incremented and leaves the evictable
// list. It returns the leased token length — the longest fully-node-
// covered resident prefix, which after an Insert of the same tokens is
// exactly the resident prefix (Insert splits nodes at the insertion
// end). The caller must Release the same leased length exactly once.
//
//alisa:hotpath
func (x *Index) Lease(tokens []int) int {
	cur := x.root
	leased := 0
	for {
		rest := tokens[leased:]
		if len(rest) < x.blockSize {
			return leased
		}
		slot, ok := x.findChild(cur, rest[:x.blockSize])
		if !ok {
			return leased
		}
		c := cur.children[slot]
		m := x.matchedBlocks(c, rest)
		if m < c.blocks(x.blockSize) {
			// Partial coverage: leasing would over-pin the span's tail and
			// break split refcount inheritance; stop at the node boundary.
			return leased
		}
		c.ref++
		if c.inLRU {
			x.lruUnlink(c)
		}
		leased += len(c.tokens)
		cur = c
	}
}

// Release undoes one Lease of tokens (the exact leased slice): refcounts
// along the fully covered path are decremented, and nodes that drop to
// refcount 0 with no children become evictable at virtual time now —
// the most recently used end of the LRU list.
//
//alisa:hotpath
func (x *Index) Release(tokens []int, now float64) {
	cur := x.root
	released := 0
	for {
		rest := tokens[released:]
		if len(rest) < x.blockSize {
			return
		}
		slot, ok := x.findChild(cur, rest[:x.blockSize])
		if !ok {
			return
		}
		c := cur.children[slot]
		m := x.matchedBlocks(c, rest)
		if m < c.blocks(x.blockSize) {
			return
		}
		if c.ref > 0 {
			c.ref--
		}
		if c.ref == 0 && len(c.children) == 0 && !c.inLRU {
			c.lastUse = now
			x.lruPushTail(c)
		}
		released += len(c.tokens)
		cur = c
	}
}

// Insert grafts the whole-block prefix of tokens into the trie, evicting
// least-recently-used refcount-0 blocks as needed to respect the byte
// budget, and creating at most headroom bytes of net growth (added −
// freed). The insertion truncates — never fails — when neither budget
// nor headroom can be satisfied. It returns the bytes of newly created
// blocks and the bytes freed by evictions; the owner mirrors both into
// its memory system. now stamps recency for any node the insertion
// makes evictable.
//
// A divergent or mid-span insertion splits the node copy-on-write:
// token storage is resliced in place and the split preserves total
// blocks, resident bytes, and every refcount.
//
//alisa:hotpath
func (x *Index) Insert(tokens []int, headroom int64, now float64) (added, freed int64) {
	aligned := len(tokens) - len(tokens)%x.blockSize
	tokens = tokens[:aligned]
	cur := x.root
	i := 0
	for i < len(tokens) {
		rest := tokens[i:]
		slot, ok := x.findChild(cur, rest[:x.blockSize])
		if !ok {
			// Divergence (or empty node): graft a new leaf with as many of
			// the remaining blocks as budget and headroom allow, evicting
			// LRU refcount-0 leaves to make room. cur is pinned for the
			// duration — unlinked from the list and refcount-bumped — so
			// room-making can neither evict it nor re-list it; its own
			// children ARE fair game, which also shifts child slots, so the
			// insertion slot is recomputed after the evictions.
			if cur.inLRU {
				x.lruUnlink(cur)
			}
			cur.ref++
			want := int64(len(rest)/x.blockSize) * x.blockBytes
			for x.afford(headroom+freed-added) < want && x.lruHead != nil {
				freed += x.evict(x.lruHead)
			}
			cur.ref--
			slot, _ = x.findChild(cur, rest[:x.blockSize])
			room := x.afford(headroom + freed - added)
			if room > want {
				room = want
			}
			nblocks := int(room / x.blockBytes)
			if nblocks == 0 {
				if cur != x.root && cur.ref == 0 && len(cur.children) == 0 && !cur.inLRU {
					cur.lastUse = now
					x.lruPushTail(cur)
				}
				return added, freed
			}
			leaf := &node{
				tokens:  rest[:nblocks*x.blockSize],
				parent:  cur,
				lastUse: now,
			}
			cur.children = append(cur.children, nil)
			copy(cur.children[slot+1:], cur.children[slot:])
			cur.children[slot] = leaf
			x.resident += int64(nblocks) * x.blockBytes
			added += int64(nblocks) * x.blockBytes
			x.lruPushTail(leaf)
			return added, freed
		}
		c := cur.children[slot]
		m := x.matchedBlocks(c, rest)
		if m < c.blocks(x.blockSize) {
			x.split(c, m)
		}
		i += m * x.blockSize
		cur = c
	}
	return added, freed
}

// afford returns the bytes the index may still grow by: the tighter of
// the budget gap and the caller-supplied headroom.
//
//alisa:hotpath
func (x *Index) afford(headroom int64) int64 {
	room := x.budget - x.resident
	if headroom < room {
		room = headroom
	}
	if room < 0 {
		return 0
	}
	return room
}

// split divides n after its first m blocks: n keeps the head, a new tail
// node inherits the rest of the span (resliced, not copied), n's
// children, and n's refcount — every lease that covered n covered all of
// it, so it covers both halves. Total blocks, resident bytes, and
// refcount-weighted coverage are preserved exactly.
//
//alisa:hotpath
func (x *Index) split(n *node, m int) {
	cut := m * x.blockSize
	tail := &node{
		tokens:   n.tokens[cut:],
		children: n.children,
		parent:   n,
		ref:      n.ref,
		lastUse:  n.lastUse,
	}
	for _, c := range tail.children {
		c.parent = tail
	}
	n.tokens = n.tokens[:cut]
	n.children = []*node{tail}
	if n.inLRU {
		// n was an evictable leaf; the tail is the leaf now. Splice it into
		// n's list position — the split changes structure, not recency.
		x.lruReplace(n, tail)
	}
}

// EvictOne removes the least-recently-used evictable node (refcount 0,
// no children) and returns the simulated bytes freed — 0 when nothing is
// evictable. Parents that become childless refcount-0 leaves re-enter
// the list at the most recently used end: every lease through the
// evicted child also touched the parent, so its true recency is at
// least the child's.
//
//alisa:hotpath
func (x *Index) EvictOne() int64 {
	if x.lruHead == nil {
		return 0
	}
	return x.evict(x.lruHead)
}

// evict removes one evictable node from the trie and the list.
//
//alisa:hotpath
func (x *Index) evict(n *node) int64 {
	x.lruUnlink(n)
	p := n.parent
	slot, ok := x.findChild(p, n.tokens[:x.blockSize])
	if !ok {
		// Structural corruption; the invariant checker reports it, the hot
		// path must not spin.
		return 0
	}
	copy(p.children[slot:], p.children[slot+1:])
	p.children[len(p.children)-1] = nil
	p.children = p.children[:len(p.children)-1]
	bytes := int64(n.blocks(x.blockSize)) * x.blockBytes
	x.resident -= bytes
	n.parent = nil
	if p != x.root && p.ref == 0 && len(p.children) == 0 && !p.inLRU {
		x.lruPushTail(p)
	}
	return bytes
}

// lruPushTail appends n at the most recently used end.
//
//alisa:hotpath
func (x *Index) lruPushTail(n *node) {
	n.inLRU = true
	n.prev = x.lruTail
	n.next = nil
	if x.lruTail != nil {
		x.lruTail.next = n
	} else {
		x.lruHead = n
	}
	x.lruTail = n
}

// lruUnlink removes n from the list.
//
//alisa:hotpath
func (x *Index) lruUnlink(n *node) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		x.lruHead = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		x.lruTail = n.prev
	}
	n.prev, n.next = nil, nil
	n.inLRU = false
}

// lruReplace splices repl into n's list position.
//
//alisa:hotpath
func (x *Index) lruReplace(n, repl *node) {
	repl.prev, repl.next = n.prev, n.next
	repl.inLRU = true
	if n.prev != nil {
		n.prev.next = repl
	} else {
		x.lruHead = repl
	}
	if n.next != nil {
		n.next.prev = repl
	} else {
		x.lruTail = repl
	}
	n.prev, n.next = nil, nil
	n.inLRU = false
}

// Clone returns an independent deep copy: same structure, refcounts,
// byte accounting, counters, and — order included — the same evictable
// list, so the copy evicts identically. Used by Loop.Snapshot.
func (x *Index) Clone() *Index {
	c := &Index{
		blockSize:    x.blockSize,
		blockBytes:   x.blockBytes,
		budget:       x.budget,
		resident:     x.resident,
		hits:         x.hits,
		misses:       x.misses,
		cachedTokens: x.cachedTokens,
	}
	// Structural copy in deterministic child order, recording the old→new
	// mapping; the map is only ever looked up by known pointers, never
	// ranged, so no iteration order can escape.
	mapping := make(map[*node]*node)
	c.root = cloneNode(x.root, nil, mapping)
	for n := x.lruHead; n != nil; n = n.next {
		c.lruPushTail(mapping[n])
	}
	return c
}

// cloneNode deep-copies one subtree. Token spans are copied (not
// aliased) so the clone cannot observe later reslicing of the
// original's storage.
func cloneNode(n, parent *node, mapping map[*node]*node) *node {
	cn := &node{
		tokens:  append([]int(nil), n.tokens...),
		parent:  parent,
		ref:     n.ref,
		lastUse: n.lastUse,
	}
	if len(n.children) > 0 {
		cn.children = make([]*node, len(n.children))
		for i, ch := range n.children {
			cn.children[i] = cloneNode(ch, cn, mapping)
		}
	}
	mapping[n] = cn
	return cn
}

// CheckInvariants walks the whole trie and verifies the structural
// contract: spans are whole blocks (root empty), children are sorted
// and lead with unique blocks, parent links are consistent, resident
// bytes equal the block count times block bytes within budget, and
// every node is either pinned (refcount > 0), an interior node, or on
// the evictable list exactly once. leaseFree additionally requires every
// refcount to be zero — the end-of-run state after all requests
// released their paths.
func (x *Index) CheckInvariants(leaseFree bool) error {
	inList := make(map[*node]int)
	listed := 0
	for n := x.lruHead; n != nil; n = n.next {
		inList[n]++
		listed++
		if listed > 1<<30 {
			return fmt.Errorf("prefix: LRU list cycle")
		}
	}
	var blocks int64
	evictable := 0
	if err := x.checkNode(x.root, nil, leaseFree, inList, &blocks, &evictable); err != nil {
		return err
	}
	if got := blocks * x.blockBytes; got != x.resident {
		return fmt.Errorf("prefix: resident bytes %d but %d blocks account %d", x.resident, blocks, got)
	}
	if x.resident > x.budget {
		return fmt.Errorf("prefix: resident %d exceeds budget %d", x.resident, x.budget)
	}
	// checkNode verified every in-trie evictable node is listed exactly
	// once; equal counts rule out orphans linked into the list but no
	// longer in the trie.
	if listed != evictable {
		return fmt.Errorf("prefix: LRU list holds %d nodes but the trie has %d evictable", listed, evictable)
	}
	return nil
}

func (x *Index) checkNode(n, parent *node, leaseFree bool, inList map[*node]int, blocks *int64, evictableCount *int) error {
	if n.parent != parent {
		return fmt.Errorf("prefix: broken parent link at span %v", n.tokens)
	}
	if n == x.root {
		if len(n.tokens) != 0 {
			return fmt.Errorf("prefix: root span must be empty, got %d tokens", len(n.tokens))
		}
		if n.ref != 0 || n.inLRU {
			return fmt.Errorf("prefix: root must be unpinned and unlisted")
		}
	} else {
		if len(n.tokens) == 0 || len(n.tokens)%x.blockSize != 0 {
			return fmt.Errorf("prefix: span of %d tokens is not whole blocks of %d", len(n.tokens), x.blockSize)
		}
		*blocks += int64(n.blocks(x.blockSize))
		if n.ref < 0 {
			return fmt.Errorf("prefix: negative refcount %d", n.ref)
		}
		if leaseFree && n.ref != 0 {
			return fmt.Errorf("prefix: leaked lease: refcount %d after all requests released", n.ref)
		}
		evictable := n.ref == 0 && len(n.children) == 0
		if evictable != n.inLRU || (n.inLRU && inList[n] != 1) {
			return fmt.Errorf("prefix: evictable=%t but inLRU=%t (listed %d×)", evictable, n.inLRU, inList[n])
		}
		if evictable {
			*evictableCount++
		}
	}
	for i, c := range n.children {
		if i > 0 && cmpBlock(n.children[i-1].tokens[:x.blockSize], c.tokens[:x.blockSize]) >= 0 {
			return fmt.Errorf("prefix: children unsorted or duplicate leading block at slot %d", i)
		}
		if err := x.checkNode(c, n, leaseFree, inList, blocks, evictableCount); err != nil {
			return err
		}
	}
	return nil
}
