// Package memo is the content-addressed, concurrency-safe cache of the
// synthesis flow. It serves two key spaces through one implementation,
// Store:
//
//   - hfmin outcomes (Cache): hazard-free two-level minimization is the
//     stage the pipeline's tracing shows consuming nearly all of its wall
//     time, and the flow re-solves the same problems over and over — the
//     encoding ladder in internal/synth retries every function per
//     attempt, and exploration and search re-synthesize controllers whose
//     AFSMs an ablated transform never touched.
//   - stage payloads (a Store behind internal/stage's engine): transformed
//     graphs, locally optimized controllers and synthesized logic blocks,
//     which make incremental re-runs after an edit cheap.
//
// # Lookup protocol
//
// Every lookup, in either key space, walks one chain: memory → disk →
// remote → compute.
//
//   - Memory. A sharded map keyed by a SHA-256 content hash. A lookup for
//     a key another goroutine is computing blocks on that computation
//     (singleflight) instead of duplicating it, so the concurrent workers
//     of par.NamedMap("hfmin", ...) solving the same spec pay it once.
//     Cached values are shared by reference; callers treat them as
//     immutable, which the synthesis pipeline does.
//   - Disk. With a cache directory (the CLIs' -cache-dir), each cached
//     value is one file named by its key hash: a salted envelope around
//     the value's codec payload, written temp-then-rename, strictly
//     validated on load. A corrupt, stale or foreign file is a miss, so a
//     damaged cache can at worst stop saving time. SetMaxBytes bounds the
//     directory with oldest-first eviction.
//   - Remote. SetRemote attaches a fleet-shared tier (the Remote
//     interface), bounded by a timeout so a slow or dead remote degrades
//     to local compute; payloads are validated exactly like disk files,
//     so a corrupt or byzantine peer costs at most a recompute. Fresh
//     values are offered back, and Export serves the local side of the
//     fleet's GET /v1/cache/{key} fill protocol.
//   - Compute. Only a successful computation is cached. One that fails,
//     is cancelled or panics vacates its key; waiters retry, so a
//     cancelled job never poisons the key for its neighbours.
//
// # hfmin keys and outcomes
//
// Key hashes the canonical form of an hfmin.Spec (transitions sorted by
// the total order on (kind, start, end) cube keys — see
// hfmin.Spec.Canonical) together with the covering backend
// (logic.SolverBB for exact minimizations, logic.SolverGreedy for
// heuristic ones), logic.SolverVersion and the package Salt. Logically
// identical specs collide regardless of construction order; bumping Salt
// or logic.SolverVersion when minimizer or solver behaviour changes
// invalidates every persisted record rather than replaying stale covers.
//
// Infeasibility verdicts (hfmin.ErrInfeasible) are cached values like
// results — the strict rungs of the encoding ladder rediscover them
// constantly — and survive disk and remote round trips with their
// message and errors.Is identity. Any other minimizer error is not
// cached.
//
// # Observability
//
// Each lookup outcome is published to the global obs registry under the
// store's namespace — memo/* for the hfmin Cache, blob/* for stage
// stores: hits, misses, dedup-waits, disk-hits and the remote/* family
// (hits, misses, errors, corrupt, stores) — and mirrored in Stats() for
// programmatic use. Because hfmin.Analyze canonicalizes internally, a
// cache hit is bit-identical to what the miss path would have computed;
// the memoized and unmemoized pipelines are asserted equal by
// TestMemoEquivalence at the repo root.
package memo

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"time"

	"repro/internal/hfmin"
	"repro/internal/logic"
)

// Salt versions the hfmin key space and record format. Bump it whenever
// hfmin's observable behaviour changes (covers, tie-breaks, cost
// weights, ...) or the record layout does, so persisted entries from
// older minimizers are ignored rather than replayed. The covering
// solvers version themselves through logic.SolverVersion, which Key
// folds in alongside this salt.
const Salt = "memo-v2/hfmin-v1"

// Cache memoizes hfmin.Minimize and hfmin.MinimizeHeuristic over a Store
// of hfmin outcomes. The zero value is not usable; call New. A nil *Cache
// is a valid pass-through that memoizes nothing.
type Cache struct {
	store *Store
}

// outcome is the cached value of one minimization: a result, or an
// infeasibility verdict (err wraps hfmin.ErrInfeasible).
type outcome struct {
	res hfmin.Result
	err error
}

// New returns a cache. A non-empty dir enables the persistent layer (the
// directory is created if needed); the empty string selects in-memory-only
// operation.
func New(dir string) (*Cache, error) {
	s, err := newStore(dir, "memo")
	if err != nil {
		return nil, err
	}
	return &Cache{store: s}, nil
}

// Solver returns the covering backend of the cache's exact minimizations,
// always logic.SolverBB. Downstream cache keys (the stage engine's synth
// keys) read it when a Cache is the pipeline's Minimizer.
func (c *Cache) Solver() logic.Solver { return logic.SolverBB }

// Stats returns the current lookup counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return c.store.Stats()
}

// SetRemote attaches a remote tier (see Store.SetRemote). Attach it
// before sharing the cache, as the daemon does at startup.
func (c *Cache) SetRemote(r Remote, timeout time.Duration) {
	c.store.SetRemote(r, timeout)
}

// SetMaxBytes caps the cache's disk directory (see Store.SetMaxBytes).
func (c *Cache) SetMaxBytes(n int64) {
	c.store.SetMaxBytes(n)
}

// Export serializes the entry for the hex-encoded key (see Store.Export).
// Infeasibility verdicts export like results.
func (c *Cache) Export(hexKey string) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	return c.store.Export(hexKey)
}

// Minimize is hfmin.Minimize behind the cache. It satisfies
// synth.Minimizer.
func (c *Cache) Minimize(spec hfmin.Spec) (hfmin.Result, error) {
	return c.MinimizeCtx(context.Background(), spec)
}

// MinimizeCtx is Minimize with cooperative cancellation; it satisfies
// synth.MinimizerCtx. A lookup that dedup-waits on another goroutine's
// computation stops waiting when ctx ends (the computing job keeps its
// own context); a computation cancelled mid-solve is discarded and its
// key vacated, never cached, so concurrent jobs sharing the cache cannot
// observe one another's cancellations as results.
func (c *Cache) MinimizeCtx(ctx context.Context, spec hfmin.Spec) (hfmin.Result, error) {
	if c == nil {
		return hfmin.MinimizeCtx(ctx, spec)
	}
	return c.get(ctx, spec, logic.SolverBB, hfmin.MinimizeCtx)
}

// MinimizeHeuristic is hfmin.MinimizeHeuristic behind the cache; the
// exact/heuristic flag is part of the key, so the two solvers never share
// entries.
func (c *Cache) MinimizeHeuristic(spec hfmin.Spec) (hfmin.Result, error) {
	if c == nil {
		return hfmin.MinimizeHeuristic(spec)
	}
	return c.get(context.Background(), spec, logic.SolverGreedy, hfmin.MinimizeHeuristicCtx)
}

// Key returns the content-addressed cache key of (spec, solver): the
// SHA-256 hash of the version salt, logic.SolverVersion, the covering
// backend id (logic.SolverBB or logic.SolverGreedy, the only values) and
// the canonical transition list. Exported for tests and diagnostics.
func Key(spec hfmin.Spec, solver logic.Solver) [sha256.Size]byte {
	canon := spec.Canonical()
	h := sha256.New()
	h.Write([]byte(Salt))
	h.Write([]byte("/" + logic.SolverVersion))
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(solver))
	put(uint64(canon.N))
	put(uint64(len(canon.Transitions)))
	for _, t := range canon.Transitions {
		put(uint64(t.Kind))
		z, o := t.Start.Raw()
		put(z)
		put(o)
		z, o = t.End.Raw()
		put(z)
		put(o)
	}
	var key [sha256.Size]byte
	h.Sum(key[:0])
	return key
}

// get runs one minimization through the store. Results and
// infeasibility verdicts are cached as outcome values; any other error
// (cancellation, a malformed spec) vacates the key instead.
func (c *Cache) get(ctx context.Context, spec hfmin.Spec, solver logic.Solver, solve func(context.Context, hfmin.Spec) (hfmin.Result, error)) (hfmin.Result, error) {
	v, _, err := c.store.Do(ctx, Key(spec, solver), recordCodec{}, func(ctx context.Context) (any, error) {
		res, err := solve(ctx, spec)
		if err != nil && !errors.Is(err, hfmin.ErrInfeasible) {
			return outcome{res: res}, err
		}
		return outcome{res, err}, nil
	})
	o, _ := v.(outcome)
	if err == nil {
		err = o.err
	}
	return o.res, err
}
