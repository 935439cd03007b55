package service

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"

	"repro/internal/graph"
)

// hashPrefix is the wire form of a graph reference: "sha256:<64 hex>".
const hashPrefix = "sha256:"

// canonicalGraph serializes g to the canonical native edge-list form and
// returns (bytes, hex hash). Canonicalizing before hashing makes the
// hash independent of how the upload was written: comments, edge order,
// endpoint order and explicit unit weights all resolve to the same
// cache entry (docs/SERVICE.md "Graph cache and content hashes").
func canonicalGraph(g *graph.Graph) ([]byte, string, error) {
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, g); err != nil {
		return nil, "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return buf.Bytes(), hex.EncodeToString(sum[:]), nil
}

// parseGraphRef validates a "sha256:<hex>" reference and returns the
// bare hex hash.
func parseGraphRef(ref string) (string, error) {
	hash, ok := strings.CutPrefix(ref, hashPrefix)
	if !ok || len(hash) != 2*sha256.Size {
		return "", fmt.Errorf("graph reference must be %q followed by %d hex digits", hashPrefix, 2*sha256.Size)
	}
	if _, err := hex.DecodeString(hash); err != nil {
		return "", fmt.Errorf("graph reference is not hex: %v", err)
	}
	return hash, nil
}

// graphCache is a bounded LRU of parsed graphs keyed by content hash,
// so repeated jobs on the same instance skip parsing entirely. Hit and
// miss counters track job-submission resolutions (the numbers surfaced
// by GET /v1/stats); metadata peeks don't perturb them.
type graphCache struct {
	mu        sync.Mutex
	capacity  int
	ll        *list.List // front = most recently used
	byHash    map[string]*list.Element
	hits      int64
	misses    int64
	evictions int64
}

type cacheEntry struct {
	hash string
	g    *graph.Graph
}

func newGraphCache(capacity int) *graphCache {
	if capacity <= 0 {
		capacity = defaultCacheEntries
	}
	return &graphCache{capacity: capacity, ll: list.New(), byHash: make(map[string]*list.Element)}
}

// acquire resolves a hash for a job submission, counting a hit or miss.
func (c *graphCache) acquire(hash string) (*graph.Graph, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byHash[hash]; ok {
		c.hits++
		c.ll.MoveToFront(el)
		return el.Value.(*cacheEntry).g, true
	}
	c.misses++
	return nil, false
}

// peek looks a graph up without touching the hit/miss counters or the
// LRU order (metadata queries, upload duplicate detection).
func (c *graphCache) peek(hash string) (*graph.Graph, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byHash[hash]; ok {
		return el.Value.(*cacheEntry).g, true
	}
	return nil, false
}

// put inserts (or refreshes) an entry, evicting the least recently used
// beyond capacity.
func (c *graphCache) put(hash string, g *graph.Graph) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byHash[hash]; ok {
		c.ll.MoveToFront(el)
		return
	}
	c.byHash[hash] = c.ll.PushFront(&cacheEntry{hash: hash, g: g})
	for c.ll.Len() > c.capacity {
		el := c.ll.Back()
		c.ll.Remove(el)
		delete(c.byHash, el.Value.(*cacheEntry).hash)
		c.evictions++
	}
}

type cacheStats struct {
	Entries   int   `json:"entries"`
	Capacity  int   `json:"capacity"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

func (c *graphCache) stats() cacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cacheStats{
		Entries: c.ll.Len(), Capacity: c.capacity,
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
	}
}
