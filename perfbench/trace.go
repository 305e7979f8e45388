package main

import (
	"context"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"p3"
)

// Tracing records spans at the layer boundaries, from outside the program:
// the client around each HTTP call, a wrapper around each proxy's
// http.Handler, and wrappers around the PhotoService and SecretStore the
// proxies are given. A request is traced when its client sends a traceHeader
// naming its request id and client span; the handler wrapper carries both in
// the request context, so backend calls — including cache loads, which keep
// the context values of the request that led them — attach to the request.

// traceHeader carries "<request id>/<client span id>" from client to proxy.
const traceHeader = "X-P3bench-Trace"

// span is one timed interval at a layer boundary. Times are Unix
// nanoseconds, comparable between the client and server processes on one
// machine.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"` // 0 for a root span
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Phase  string `json:"phase,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. Span ids carry the
// recording process in their top bits, so client and server ids never
// collide.
type recorder struct {
	idBase uint64
	next   atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func newRecorder(idBase uint64) *recorder { return &recorder{idBase: idBase} }

func (r *recorder) newID() uint64 { return r.idBase | r.next.Add(1) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// take returns the recorded spans and forgets them.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

type traceCtxKey struct{}

// traceCtx identifies the request and the span a backend call nests in.
type traceCtx struct {
	req, parent uint64
}

func parseTraceHeader(h string) (traceCtx, bool) {
	reqS, parentS, ok := strings.Cut(h, "/")
	if !ok {
		return traceCtx{}, false
	}
	req, err1 := strconv.ParseUint(reqS, 10, 64)
	parent, err2 := strconv.ParseUint(parentS, 10, 64)
	return traceCtx{req, parent}, err1 == nil && err2 == nil
}

// tracedHandler wraps a proxy's HTTP handler with the "proxy" span.
func tracedHandler(rec *recorder, name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tc, ok := parseTraceHeader(r.Header.Get(traceHeader))
		if !ok {
			h.ServeHTTP(w, r)
			return
		}
		s := span{ID: rec.newID(), Parent: tc.parent, Req: tc.req, Name: name, Start: time.Now().UnixNano()}
		ctx := context.WithValue(r.Context(), traceCtxKey{}, traceCtx{req: tc.req, parent: s.ID})
		h.ServeHTTP(w, r.WithContext(ctx))
		s.End = time.Now().UnixNano()
		rec.add(s)
	})
}

// timeCall records a backend span when ctx belongs to a traced request.
func timeCall(ctx context.Context, rec *recorder, name string, call func() error) error {
	tc, ok := ctx.Value(traceCtxKey{}).(traceCtx)
	if !ok {
		return call()
	}
	s := span{ID: rec.newID(), Parent: tc.parent, Req: tc.req, Name: name, Start: time.Now().UnixNano()}
	err := call()
	s.End = time.Now().UnixNano()
	rec.add(s)
	return err
}

// ioCounter counts calls and bytes through one backend operation.
type ioCounter struct {
	calls, bytes atomic.Int64
}

func (c *ioCounter) add(n int) {
	c.calls.Add(1)
	c.bytes.Add(int64(n))
}

// ioCounts is a snapshot of an ioCounter.
type ioCounts struct {
	Calls int64 `json:"calls"`
	Bytes int64 `json:"bytes"`
}

func (c *ioCounter) snap() ioCounts { return ioCounts{c.calls.Load(), c.bytes.Load()} }

func (a ioCounts) sub(b ioCounts) ioCounts { return ioCounts{a.Calls - b.Calls, a.Bytes - b.Bytes} }

func (a ioCounts) add(b ioCounts) ioCounts { return ioCounts{a.Calls + b.Calls, a.Bytes + b.Bytes} }

// tracedPhotos wraps the PSP client. It counts every call, records the
// public-part size of each upload, and times calls of traced requests. Like
// the HTTP service it wraps, it implements p3.UploadDimsService and
// p3.PhotoDeleter, so the proxy takes the same paths as without it.
type tracedPhotos struct {
	inner   *p3.HTTPPhotoService
	rec     *recorder
	fetch   ioCounter
	upload  ioCounter
	mu      sync.Mutex
	pubSize map[string]int // photo id → public-part bytes uploaded
}

func (t *tracedPhotos) noteUpload(id string, n int) {
	t.upload.add(n)
	t.mu.Lock()
	t.pubSize[id] = n
	t.mu.Unlock()
}

func (t *tracedPhotos) UploadPhoto(ctx context.Context, b []byte) (id string, err error) {
	err = timeCall(ctx, t.rec, "psp.upload", func() error {
		id, err = t.inner.UploadPhoto(ctx, b)
		return err
	})
	if err == nil {
		t.noteUpload(id, len(b))
	}
	return id, err
}

func (t *tracedPhotos) UploadPhotoWithDims(ctx context.Context, b []byte) (id string, w, h int, err error) {
	err = timeCall(ctx, t.rec, "psp.upload", func() error {
		id, w, h, err = t.inner.UploadPhotoWithDims(ctx, b)
		return err
	})
	if err == nil {
		t.noteUpload(id, len(b))
	}
	return id, w, h, err
}

func (t *tracedPhotos) FetchPhoto(ctx context.Context, id string, v p3.PhotoVariant) (b []byte, err error) {
	err = timeCall(ctx, t.rec, "psp.fetch", func() error {
		b, err = t.inner.FetchPhoto(ctx, id, v)
		return err
	})
	if err == nil {
		t.fetch.add(len(b))
	}
	return b, err
}

func (t *tracedPhotos) DeletePhoto(ctx context.Context, id string) error {
	return t.inner.DeletePhoto(ctx, id)
}

// tracedStore wraps the sharded secret store as a whole, so its put bytes
// are logical (sealed) bytes, before replication.
type tracedStore struct {
	inner   *p3.ShardedSecretStore
	rec     *recorder
	get     ioCounter
	put     ioCounter
	mu      sync.Mutex
	secSize map[string]int // photo id → sealed secret bytes stored
}

func (t *tracedStore) PutSecret(ctx context.Context, id string, blob []byte) error {
	err := timeCall(ctx, t.rec, "store.put", func() error { return t.inner.PutSecret(ctx, id, blob) })
	if err == nil {
		t.put.add(len(blob))
		t.mu.Lock()
		t.secSize[id] = len(blob)
		t.mu.Unlock()
	}
	return err
}

func (t *tracedStore) GetSecret(ctx context.Context, id string) (b []byte, err error) {
	err = timeCall(ctx, t.rec, "store.get", func() error {
		b, err = t.inner.GetSecret(ctx, id)
		return err
	})
	if err == nil {
		t.get.add(len(b))
	}
	return b, err
}

func (t *tracedStore) DeleteSecret(ctx context.Context, id string) error {
	return t.inner.DeleteSecret(ctx, id)
}

// Shards and ShardStats keep the proxy's per-shard metrics as they are
// without the wrapper.
func (t *tracedStore) Shards() int                 { return t.inner.Shards() }
func (t *tracedStore) ShardStats() []p3.ShardStats { return t.inner.ShardStats() }

var (
	_ p3.UploadDimsService = (*tracedPhotos)(nil)
	_ p3.PhotoDeleter      = (*tracedPhotos)(nil)
	_ p3.SecretDeleter     = (*tracedStore)(nil)
)
