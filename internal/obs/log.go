package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Level is a log severity.
type Level int32

// Log levels, in increasing severity.
const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String returns the conventional lower-case level name.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	default:
		return fmt.Sprintf("level(%d)", int32(l))
	}
}

// ParseLevel parses a level name ("debug", "info", "warn", "error").
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return LevelDebug, nil
	case "info", "":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	default:
		return LevelInfo, fmt.Errorf("obs: unknown log level %q", s)
	}
}

// Logger writes structured events as JSON lines: one object per event
// with "ts", "level", "msg", and the caller's key/value pairs. The nil
// logger is a valid no-op.
type Logger struct {
	min Level
	now func() time.Time

	mu sync.Mutex
	w  io.Writer
}

// NewLogger creates a logger writing events at or above min to w.
func NewLogger(w io.Writer, min Level) *Logger {
	return &Logger{w: w, min: min, now: time.Now}
}

// Enabled reports whether events at the given level would be written.
func (l *Logger) Enabled(level Level) bool {
	return l != nil && level >= l.min
}

// Debug logs a debug event; kv are alternating key/value pairs.
func (l *Logger) Debug(msg string, kv ...any) { l.log(LevelDebug, msg, kv) }

// Info logs an info event.
func (l *Logger) Info(msg string, kv ...any) { l.log(LevelInfo, msg, kv) }

// Warn logs a warning event.
func (l *Logger) Warn(msg string, kv ...any) { l.log(LevelWarn, msg, kv) }

// Error logs an error event.
func (l *Logger) Error(msg string, kv ...any) { l.log(LevelError, msg, kv) }

func (l *Logger) log(level Level, msg string, kv []any) {
	if !l.Enabled(level) {
		return
	}
	var sb strings.Builder
	sb.WriteString(`{"ts":`)
	sb.WriteString(jsonQuote(l.now().UTC().Format(time.RFC3339Nano)))
	sb.WriteString(`,"level":`)
	sb.WriteString(jsonQuote(level.String()))
	sb.WriteString(`,"msg":`)
	sb.WriteString(jsonQuote(msg))
	for i := 0; i+1 < len(kv); i += 2 {
		key := fmt.Sprint(kv[i])
		sb.WriteByte(',')
		sb.WriteString(jsonQuote(key))
		sb.WriteByte(':')
		val, err := json.Marshal(kv[i+1])
		if err != nil {
			val, _ = json.Marshal(fmt.Sprint(kv[i+1]))
		}
		sb.Write(val)
	}
	if len(kv)%2 != 0 {
		sb.WriteString(`,"!BADKEY":`)
		val, _ := json.Marshal(fmt.Sprint(kv[len(kv)-1]))
		sb.Write(val)
	}
	sb.WriteString("}\n")
	l.mu.Lock()
	io.WriteString(l.w, sb.String())
	l.mu.Unlock()
}

// jsonQuote JSON-quotes a string.
func jsonQuote(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}
