// Package obs is the observability layer shared by every serving
// component: structured JSON logging (log/slog) carried in a
// context.Context, per-request trace IDs propagated coordinator→worker
// in the X-Raccd-Trace header, and per-job wall-time phase accumulators
// (queue-wait, build, exec, store, fabric RTT).
//
// The package deliberately has no dependencies on the rest of the tree
// so every layer — HTTP handlers, the job queue, the exec layer, the
// fabric — can import it without cycles. Everything is nil-safe: code
// running outside a served request (unit tests, the offline sweep CLI)
// gets no-op loggers and no-op phase accumulators rather than nil
// checks at every call site.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"io"
	"log/slog"
)

// TraceHeader is the HTTP header a trace ID travels in: clients send it
// on requests, daemons echo it on every response, and the fabric
// forwards it coordinator→worker so one grep over three processes'
// logs reconstructs a batch.
const TraceHeader = "X-Raccd-Trace"

// Canonical phase names recorded on a job. Phases tile a single-run
// job's wall time; for batch and sweep jobs the per-run phases of
// concurrent runs accumulate, so their sum can exceed wall time (see
// docs/OBSERVABILITY.md).
const (
	PhaseQueueWait = "queue_wait" // accepted → started, plus each run's start → slot
	PhaseBuild     = "build"      // workload construction for an executed run
	PhaseExec      = "exec"       // inside the simulator proper
	PhaseStore     = "store"      // result-store get/put, coalesced waits, until committed
	PhaseFabric    = "fabric_rtt" // coordinator-side remote round trip
)

type ctxKey int

const (
	loggerKey ctxKey = iota
	traceKey
	phasesKey
)

// NewLogger returns a structured logger writing one JSON object per
// line to w at the given level — the daemon's log format.
func NewLogger(w io.Writer, level slog.Level) *slog.Logger {
	return slog.New(slog.NewJSONHandler(w, &slog.HandlerOptions{Level: level}))
}

// Nop returns a logger that discards everything. (go 1.22 predates
// slog.DiscardHandler, so the handler is hand-rolled.)
func Nop() *slog.Logger { return slog.New(nopHandler{}) }

type nopHandler struct{}

func (nopHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (nopHandler) Handle(context.Context, slog.Record) error { return nil }
func (nopHandler) WithAttrs([]slog.Attr) slog.Handler        { return nopHandler{} }
func (nopHandler) WithGroup(string) slog.Handler             { return nopHandler{} }

// WithLogger returns a context carrying l for Log to recover.
func WithLogger(ctx context.Context, l *slog.Logger) context.Context {
	return context.WithValue(ctx, loggerKey, l)
}

// Log returns the context's logger, or a no-op logger when none was
// attached — callers log unconditionally and pay nothing outside a
// served request.
func Log(ctx context.Context) *slog.Logger {
	if l, ok := ctx.Value(loggerKey).(*slog.Logger); ok && l != nil {
		return l
	}
	return Nop()
}

// NewTraceID returns a fresh 16-hex-digit trace ID.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively impossible; keep tracing
		// non-fatal with a recognizable sentinel.
		return "trace-rand-failed"
	}
	return hex.EncodeToString(b[:])
}

// WithTrace returns a context carrying the trace ID.
func WithTrace(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, traceKey, id)
}

// Trace returns the context's trace ID, or "" when none was attached.
func Trace(ctx context.Context) string {
	if id, ok := ctx.Value(traceKey).(string); ok {
		return id
	}
	return ""
}

// WithPhases returns a context carrying p for PhasesFrom to recover.
func WithPhases(ctx context.Context, p *Phases) context.Context {
	return context.WithValue(ctx, phasesKey, p)
}

// PhasesFrom returns the context's phase accumulator, or nil when none
// was attached. A nil *Phases is a valid no-op accumulator, so callers
// use the result unconditionally.
func PhasesFrom(ctx context.Context) *Phases {
	p, _ := ctx.Value(phasesKey).(*Phases)
	return p
}
