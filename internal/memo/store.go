package memo

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Store is the package's one cache implementation: a content-addressed
// value cache with the memory → disk → remote → compute lookup chain
// described in the package doc. The stage engine (internal/stage) keeps
// every pipeline stage result in one — a transformed CDFG, an extracted
// controller after local transforms, a synthesized logic block — and
// Cache is a Store of hfmin outcomes.
//
// A caller chooses, via the BlobCodec it passes to Do, whether a value is
// serializable: a nil codec keeps it memory-only (useful for results
// holding live pointers, like transformed graphs), a non-nil codec lets
// it reach the disk directory and the remote tier. Payloads on disk and
// on the wire are wrapped in a salted envelope; decode failures are
// misses, never results.
//
// Errors are never cached: a compute that fails vacates its key, so a
// transient failure (cancellation, resource exhaustion) cannot poison
// the cache for later jobs. Callers that want an outcome cached — Cache's
// infeasibility verdicts — return it as a value.
type Store struct {
	dir           string
	prefix        string // obs namespace of the counters and temp files
	remote        Remote
	remoteTimeout time.Duration
	cap           *dirCap
	shards        [numShards]shard

	hits, misses, dedupWaits, diskHits     counter
	remoteHits, remoteMisses, remoteErrors counter
	remoteCorrupt, remoteStores            counter
}

// StoreSalt versions the blob envelope; bump it whenever the envelope
// format changes. Payload semantics are versioned by the key spaces
// themselves (Salt for hfmin records, stage.Salt for stage payloads),
// so the two kinds never share a key.
const StoreSalt = "blob-v1"

// numShards bounds lock contention between concurrent workers; keys are
// SHA-256 hashes, so the first byte shards uniformly.
const numShards = 16

// BlobCodec serializes one kind of cached value for the disk and remote
// tiers. Encode reports ok=false for values that should stay
// memory-only; Decode reports ok=false on any validation failure, which
// demotes the record to a miss. Encoded payloads must be valid JSON
// (they are embedded in the salted envelope as a raw message).
type BlobCodec interface {
	// Encode serializes a value; ok=false keeps it memory-only.
	Encode(v any) ([]byte, bool)
	// Decode strictly validates and deserializes a payload.
	Decode(data []byte) (any, bool)
}

// Source reports which tier served a Store.Do lookup.
type Source int

// Lookup sources, ordered from most to least expensive.
const (
	SourceComputed Source = iota // ran the compute function
	SourceMemory                 // in-memory hit (or singleflight wait)
	SourceDisk                   // loaded from the disk directory
	SourceRemote                 // filled from the remote tier
)

// String names the source ("computed", "memory", "disk", "remote").
func (s Source) String() string {
	switch s {
	case SourceComputed:
		return "computed"
	case SourceMemory:
		return "memory"
	case SourceDisk:
		return "disk"
	case SourceRemote:
		return "remote"
	default:
		return fmt.Sprintf("source(%d)", int(s))
	}
}

// Stats is a snapshot of a store's (or cache's) lookup counters.
type Stats struct {
	Hits          int64 // served from the in-memory map
	Misses        int64 // computed (not found in memory, on disk or remotely)
	DedupWaits    int64 // blocked on another goroutine computing the same key
	DiskHits      int64 // loaded from the persistent cache directory
	RemoteHits    int64 // filled from the remote tier
	RemoteErrors  int64 // remote fetches that failed or timed out
	RemoteCorrupt int64 // remote payloads rejected by validation
}

// counter is one lookup outcome, counted for Stats and mirrored to the
// global obs registry under its "<prefix>/..." name.
type counter struct {
	name string
	n    atomic.Int64
}

func (c *counter) inc() {
	c.n.Add(1)
	obs.Add(c.name, 1)
}

type shard struct {
	mu sync.Mutex
	m  map[[sha256.Size]byte]*entry
}

// entry is one cached computation. done is closed when val/data are
// final; waiters block on it (singleflight). aborted marks an entry whose
// computation failed, was cancelled or panicked: it has been removed
// from the map and waiters retry rather than inheriting the error. data
// holds the encoded envelope once a disk or remote tier needed it; codec
// lets Export encode the value on demand when it did not.
type entry struct {
	done    chan struct{}
	val     any
	data    []byte
	codec   BlobCodec
	aborted bool
}

// blobRec is the salted on-disk/wire envelope around a codec payload.
type blobRec struct {
	Salt string          `json:"salt"`
	Data json.RawMessage `json:"data"`
}

// NewStore returns a blob store. A non-empty dir enables the persistent
// layer (the directory is created if needed); empty selects
// in-memory-only operation.
func NewStore(dir string) (*Store, error) {
	return newStore(dir, "blob")
}

// newStore is NewStore with the obs namespace of the store's counters:
// "blob" for stage payloads, "memo" for the hfmin Cache.
func newStore(dir, prefix string) (*Store, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("memo: cache dir: %w", err)
		}
	}
	s := &Store{dir: dir, prefix: prefix}
	for c, name := range map[*counter]string{
		&s.hits: "hits", &s.misses: "misses", &s.dedupWaits: "dedup-waits", &s.diskHits: "disk-hits",
		&s.remoteHits: "remote/hits", &s.remoteMisses: "remote/misses", &s.remoteErrors: "remote/errors",
		&s.remoteCorrupt: "remote/corrupt", &s.remoteStores: "remote/stores",
	} {
		c.name = prefix + "/" + name
	}
	for i := range s.shards {
		s.shards[i].m = map[[sha256.Size]byte]*entry{}
	}
	return s, nil
}

// Stats returns the current lookup counters.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	return Stats{
		Hits:          s.hits.n.Load(),
		Misses:        s.misses.n.Load(),
		DedupWaits:    s.dedupWaits.n.Load(),
		DiskHits:      s.diskHits.n.Load(),
		RemoteHits:    s.remoteHits.n.Load(),
		RemoteErrors:  s.remoteErrors.n.Load(),
		RemoteCorrupt: s.remoteCorrupt.n.Load(),
	}
}

// Do returns the value cached under key, computing and caching it on a
// miss. Concurrent calls for the same key collapse onto one computation
// (singleflight); a computation that returns an error — or whose context
// ends — vacates the key instead of caching. A lookup that dedup-waits
// stops waiting when its own ctx ends (the computing call keeps its
// context). Cached values are shared by reference across callers, who
// must treat them as immutable.
//
// A computed value is encoded only when a disk directory or remote tier
// will store it; Export encodes memory-only entries on demand.
func (s *Store) Do(ctx context.Context, key [sha256.Size]byte, codec BlobCodec, compute func(context.Context) (any, error)) (any, Source, error) {
	if s == nil {
		v, err := compute(ctx)
		return v, SourceComputed, err
	}
	sh := &s.shards[key[0]%numShards]
	for {
		sh.mu.Lock()
		if e, ok := sh.m[key]; ok {
			sh.mu.Unlock()
			select {
			case <-e.done:
			default:
				s.dedupWaits.inc()
				select {
				case <-e.done:
				case <-ctx.Done():
					return nil, SourceComputed, ctx.Err()
				}
			}
			if e.aborted {
				continue // the computing call failed or was cancelled; retry
			}
			s.hits.inc()
			return e.val, SourceMemory, nil
		}
		e := &entry{done: make(chan struct{}), codec: codec}
		sh.m[key] = e
		sh.mu.Unlock()

		// Resolve the entry even if compute panics, so waiters never block
		// forever; the panic propagates to par's recovery while the key
		// stays computable.
		completed := false
		defer func() {
			if !completed {
				sh.mu.Lock()
				delete(sh.m, key)
				sh.mu.Unlock()
				e.aborted = true
				close(e.done)
			}
		}()
		fill := func(v any, data []byte) {
			e.val, e.data = v, data
			completed = true
			close(e.done)
		}

		if codec != nil {
			if v, data, ok := s.loadDisk(key, codec); ok {
				s.diskHits.inc()
				fill(v, data)
				return v, SourceDisk, nil
			}
			// A remote hit is persisted locally too, so a node restart
			// keeps it; a slow, dead or corrupt remote falls through.
			if v, data, ok := s.loadRemote(ctx, key, codec); ok {
				s.remoteHits.inc()
				fill(v, data)
				s.writeDisk(key, data)
				return v, SourceRemote, nil
			}
		}

		s.misses.inc()
		v, err := compute(ctx)
		if err != nil {
			return v, SourceComputed, err // the deferred abort vacates the key
		}
		var data []byte
		if codec != nil && (s.dir != "" || s.remote != nil) {
			data, _ = encodeBlob(codec, v)
		}
		fill(v, data)
		if data != nil {
			s.writeDisk(key, data)
			s.storeRemote(key, data)
		}
		return v, SourceComputed, nil
	}
}

// encodeBlob wraps a codec payload in the salted envelope.
func encodeBlob(codec BlobCodec, v any) ([]byte, bool) {
	payload, ok := codec.Encode(v)
	if !ok {
		return nil, false
	}
	data, err := json.Marshal(blobRec{Salt: StoreSalt, Data: payload})
	return data, err == nil
}

// Export serializes the store's entry for the hex-encoded key, serving
// the fleet cache-fill protocol (GET /v1/cache/{key}). Completed
// in-memory entries are served first — encoded now if no tier needed
// them encoded yet — then the disk layer; in-flight, aborted, absent and
// memory-only entries report ok=false. The requester re-validates
// everything, so disk bytes are returned verbatim.
func (s *Store) Export(hexKey string) ([]byte, bool) {
	if s == nil {
		return nil, false
	}
	raw, err := hex.DecodeString(hexKey)
	if err != nil || len(raw) != sha256.Size {
		return nil, false
	}
	var key [sha256.Size]byte
	copy(key[:], raw)

	sh := &s.shards[key[0]%numShards]
	sh.mu.Lock()
	e, ok := sh.m[key]
	sh.mu.Unlock()
	if ok {
		select {
		case <-e.done:
			if e.data != nil {
				return e.data, true
			}
			if !e.aborted && e.codec != nil {
				if data, ok := encodeBlob(e.codec, e.val); ok {
					return data, true
				}
			}
		default: // still being computed
		}
	}
	if s.dir == "" {
		return nil, false
	}
	data, rerr := os.ReadFile(s.blobPath(key))
	if rerr != nil {
		return nil, false
	}
	return data, true
}
