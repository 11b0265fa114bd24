package memo

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"time"
)

// Remote is a pluggable second cache tier behind the in-memory map and
// the local disk directory: a fleet-shared store of cached values in the
// same strictly-validated envelope the disk layer uses (see disk.go).
// The peer-to-peer HTTP backend is fleet.CacheClient; a blob store would
// be another implementation.
//
// The contract is deliberately weak so a remote can never hurt
// correctness, only save time:
//
//   - Fetch returns the payload bytes for a key, (nil, nil) on a clean
//     miss, or an error. The caller re-validates every payload; corrupt
//     or stale bytes are demoted to a miss and counted, never trusted.
//   - Store offers a freshly-computed payload to the tier; best-effort,
//     errors are ignored. Pull-based backends make it a no-op.
//
// Keys on the wire are the lowercase hex of the 32-byte cache key
// (Key for hfmin records), so remote entries are content-addressed
// exactly like local ones and a foreign-salt record can never alias a
// current key.
type Remote interface {
	// Fetch returns the payload for key, (nil, nil) on a miss.
	Fetch(ctx context.Context, key string) ([]byte, error)
	// Store offers a payload to the tier; best-effort.
	Store(ctx context.Context, key string, data []byte) error
}

// DefaultRemoteTimeout bounds one remote lookup when SetRemote is given
// a non-positive timeout.
const DefaultRemoteTimeout = time.Second

// SetRemote attaches a remote tier to the store. A lookup that misses
// memory and disk consults the remote before computing; the fetch is
// bounded by timeout (<= 0 selects DefaultRemoteTimeout) so a slow or
// dead remote degrades to local compute instead of stalling it.
// Freshly-computed values are offered back with Store. A nil remote
// detaches the tier.
//
// SetRemote is not synchronized with in-flight lookups; attach the tier
// before sharing the store, as the daemon does at startup.
func (s *Store) SetRemote(r Remote, timeout time.Duration) {
	if timeout <= 0 {
		timeout = DefaultRemoteTimeout
	}
	s.remote = r
	s.remoteTimeout = timeout
}

// loadRemote consults the remote tier for key. Every outcome is counted:
// remote/misses for a clean fleet-wide miss, remote/errors when the
// fetch failed or timed out, remote/corrupt when the payload failed
// validation (the caller counts remote/hits). The failure modes all
// report ok=false, falling through to local compute.
func (s *Store) loadRemote(ctx context.Context, key [sha256.Size]byte, codec BlobCodec) (any, []byte, bool) {
	if s.remote == nil {
		return nil, nil, false
	}
	rctx, cancel := context.WithTimeout(ctx, s.remoteTimeout)
	defer cancel()
	data, err := s.remote.Fetch(rctx, hex.EncodeToString(key[:]))
	switch {
	case err != nil:
		s.remoteErrors.inc()
		return nil, nil, false
	case data == nil:
		s.remoteMisses.inc()
		return nil, nil, false
	}
	v, ok := decodeBlob(data, codec)
	if !ok {
		s.remoteCorrupt.inc()
		return nil, nil, false
	}
	return v, data, true
}

// storeRemote offers a freshly-encoded envelope to the remote tier,
// detached from the computing job's context: the value is final, so a
// cancellation arriving after the compute must not suppress the share.
func (s *Store) storeRemote(key [sha256.Size]byte, data []byte) {
	if s.remote == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), s.remoteTimeout)
	defer cancel()
	if s.remote.Store(ctx, hex.EncodeToString(key[:]), data) == nil {
		s.remoteStores.inc()
	}
}
