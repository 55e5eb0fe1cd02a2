package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
)

// SpanContext is a W3C Trace Context identity: a 16-byte trace ID shared
// by every span of one distributed request, an 8-byte span ID naming the
// current hop, and the sampled flag. It is the wire-level companion to
// the Chrome-trace Span: handlers parse it from the incoming traceparent
// header, stamp it onto their spans as an argument, and propagate a
// child context to downstream work.
type SpanContext struct {
	TraceID [16]byte
	SpanID  [8]byte
	Flags   byte
}

// Valid reports whether the context carries non-zero trace and span IDs,
// as the W3C spec requires.
func (sc SpanContext) Valid() bool {
	return sc.TraceID != [16]byte{} && sc.SpanID != [8]byte{}
}

// Traceparent renders the context in W3C traceparent form:
// version-traceid-spanid-flags, all lowercase hex.
func (sc SpanContext) Traceparent() string {
	return fmt.Sprintf("00-%s-%s-%02x",
		hex.EncodeToString(sc.TraceID[:]),
		hex.EncodeToString(sc.SpanID[:]),
		sc.Flags)
}

// TraceIDString returns the 32-hex-digit trace ID.
func (sc SpanContext) TraceIDString() string { return hex.EncodeToString(sc.TraceID[:]) }

// SpanIDString returns the 16-hex-digit span ID.
func (sc SpanContext) SpanIDString() string { return hex.EncodeToString(sc.SpanID[:]) }

// ParseTraceparent parses a W3C traceparent header value. It accepts any
// known-length version whose version byte is not the reserved "ff",
// lowercase hex only, and rejects all-zero trace or span IDs.
func ParseTraceparent(h string) (SpanContext, error) {
	var sc SpanContext
	parts := strings.Split(strings.TrimSpace(h), "-")
	if len(parts) < 4 {
		return sc, fmt.Errorf("traceparent: want 4 fields, got %d", len(parts))
	}
	ver, tid, sid, flags := parts[0], parts[1], parts[2], parts[3]
	if len(ver) != 2 || ver == "ff" || !isLowerHex(ver) {
		return sc, fmt.Errorf("traceparent: bad version %q", ver)
	}
	// Version 00 has exactly four fields; future versions may append more.
	if ver == "00" && len(parts) != 4 {
		return sc, fmt.Errorf("traceparent: version 00 with %d fields", len(parts))
	}
	if len(tid) != 32 || !isLowerHex(tid) {
		return sc, fmt.Errorf("traceparent: bad trace-id %q", tid)
	}
	if len(sid) != 16 || !isLowerHex(sid) {
		return sc, fmt.Errorf("traceparent: bad parent-id %q", sid)
	}
	if len(flags) != 2 || !isLowerHex(flags) {
		return sc, fmt.Errorf("traceparent: bad flags %q", flags)
	}
	hex.Decode(sc.TraceID[:], []byte(tid))
	hex.Decode(sc.SpanID[:], []byte(sid))
	var fb [1]byte
	hex.Decode(fb[:], []byte(flags))
	sc.Flags = fb[0]
	if !sc.Valid() {
		return SpanContext{}, fmt.Errorf("traceparent: all-zero trace or span id")
	}
	return sc, nil
}

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return len(s) > 0
}

// NewSpanContext mints a fresh sampled root context with random IDs —
// used when a request arrives without a traceparent header.
func NewSpanContext() SpanContext {
	var sc SpanContext
	for !sc.Valid() {
		rand.Read(sc.TraceID[:])
		rand.Read(sc.SpanID[:])
	}
	sc.Flags = 0x01
	return sc
}

// NewChild keeps the trace ID and flags but mints a fresh span ID: the
// identity a handler passes downstream so each hop is distinguishable.
func (sc SpanContext) NewChild() SpanContext {
	child := sc
	for {
		rand.Read(child.SpanID[:])
		if child.SpanID != [8]byte{} && child.SpanID != sc.SpanID {
			return child
		}
	}
}

// EnvTraceparent is the environment variable CLIs read to join an
// externally-initiated trace — the command-line analogue of the HTTP
// traceparent header (a CI harness or orchestration script sets it, and
// every tool it runs lands in the same distributed trace).
const EnvTraceparent = "TRACEPARENT"

// EnvSpanContext returns the trace context propagated via TRACEPARENT,
// continued with a fresh span ID, or a brand-new root context when the
// variable is absent or malformed.
func EnvSpanContext() SpanContext {
	if sc, err := ParseTraceparent(os.Getenv(EnvTraceparent)); err == nil {
		return sc.NewChild()
	}
	return NewSpanContext()
}

// spanContextKey keys a SpanContext inside a context.Context.
type spanContextKey struct{}

// WithSpanContext returns a context carrying sc.
func WithSpanContext(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, spanContextKey{}, sc)
}

// SpanContextFrom extracts the SpanContext, if any, from ctx.
func SpanContextFrom(ctx context.Context) (SpanContext, bool) {
	sc, ok := ctx.Value(spanContextKey{}).(SpanContext)
	return sc, ok && sc.Valid()
}

// Annotate stamps the trace identity onto a Chrome-trace span so the two
// trace systems can be joined offline by trace ID.
func (sc SpanContext) Annotate(s *Span) {
	if s == nil || !sc.Valid() {
		return
	}
	s.SetArg("trace_id", sc.TraceIDString())
	s.SetArg("span_id", sc.SpanIDString())
}
