package serving

import (
	"errors"
	"io"
	"sync"

	"serenade/internal/core"
	"serenade/internal/fastjson"
	"serenade/internal/sessions"
)

// reqScratch is the per-request scratch space that makes the HTTP edge
// allocation-free in steady state: one pooled struct carries every buffer a
// request needs — body read, JSON decode state, response items, session
// state codec, kvstore reads, cache key, response encode — through the
// handler, the recommendation pipeline and the response write.
//
// Lifecycle invariant: a scratch is acquired at the top of a handler and
// released (deferred) only after the response bytes have been handed to the
// ResponseWriter, so nothing downstream may retain a reference past the
// handler's return. Everything that must outlive the request — the session
// key, kvstore values, cache entries published to other requests — is
// copied out by its owner (kvstore.Put, resultCache.fill,
// quality.RecordExposure all copy).
type reqScratch struct {
	// dec is the reusable JSON scanner; its internal unescape buffer
	// amortises across requests.
	dec fastjson.Dec
	// body holds the raw request body.
	body []byte
	// enc holds the encoded response (and the replayed idempotent body).
	enc []byte
	// items backs the response item list end to end: kernel copy, business
	// rules (in place), popularity padding, Response.Items.
	items []core.ScoredItem
	// session backs the evolving session decoded from the store.
	session []sessions.ItemID
	// sessEnc holds the re-encoded session written back to the store.
	sessEnc []byte
	// kvBuf receives kvstore reads (session state).
	kvBuf []byte
	// key builds the result-cache key.
	key []byte
}

var scratchPool = sync.Pool{New: func() any {
	return &reqScratch{
		body:    make([]byte, 0, 512),
		enc:     make([]byte, 0, 2048),
		items:   make([]core.ScoredItem, 0, 64),
		session: make([]sessions.ItemID, 0, 64),
		sessEnc: make([]byte, 0, 256),
		kvBuf:   make([]byte, 0, 256),
		key:     make([]byte, 0, 128),
	}
}}

// maxBodyBytes caps a POST body of /v1/recommend or /track. Real bodies are
// a few dozen bytes; anything past the cap is refused with 413 before more
// of it is read.
const maxBodyBytes = 64 << 10

var errBodyTooLarge = errors.New("request body exceeds 64 KiB")

func getScratch() *reqScratch { return scratchPool.Get().(*reqScratch) }

// putScratch recycles a scratch, except one whose body buffer an oversize
// request grew past the cap: pooling it would pin that memory for good.
func putScratch(sc *reqScratch) {
	if cap(sc.body) > maxBodyBytes {
		return
	}
	scratchPool.Put(sc)
}

// readAllInto reads r to EOF into dst's backing array (growing it only when
// the body exceeds the retained capacity) and returns the filled slice. It
// reads at most one byte past maxBodyBytes and returns errBodyTooLarge when
// the body is longer.
func readAllInto(dst []byte, r io.Reader) ([]byte, error) {
	dst = dst[:0]
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):min(cap(dst), maxBodyBytes+1)])
		dst = dst[:len(dst)+n]
		if len(dst) > maxBodyBytes {
			return dst, errBodyTooLarge
		}
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}
