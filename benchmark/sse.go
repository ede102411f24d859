package main

import (
	"bufio"
	"io"
	"strings"
)

// sseEvent is one Server-Sent Event: its type ("message" when the stream
// names none) and its data lines joined by newlines.
type sseEvent struct {
	Type string
	Data string
}

// readSSE parses an event stream and calls fn for every dispatched event
// until the stream ends or fn returns false. Comment lines (the
// collector's greeting and heartbeats) are passed to comment, when set,
// and otherwise skipped; an event is dispatched on the blank line that
// ends it, so a stream cut mid-event yields nothing for the torn part.
func readSSE(r io.Reader, comment func(string), fn func(sseEvent) bool) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var ev sseEvent
	var data []string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if ev.Type != "" || len(data) > 0 {
				if ev.Type == "" {
					ev.Type = "message"
				}
				ev.Data = strings.Join(data, "\n")
				if !fn(ev) {
					return nil
				}
			}
			ev, data = sseEvent{}, data[:0]
		case strings.HasPrefix(line, ":"):
			if comment != nil {
				comment(strings.TrimSpace(line[1:]))
			}
		default:
			field, value, _ := strings.Cut(line, ":")
			value = strings.TrimPrefix(value, " ")
			switch field {
			case "event":
				ev.Type = value
			case "data":
				data = append(data, value)
			}
		}
	}
	return sc.Err()
}
