package main

import (
	"strings"
	"testing"
)

func TestReadSSE(t *testing.T) {
	stream := ": omg-collector live tail\n\n" +
		"event: violation\ndata: {\"sample_index\":7}\n\n" +
		": heartbeat\n\n" +
		"event: dropped\ndata: {\"dropped\":3}\n\n" +
		"data: first line\ndata: second line\n\n" + // no event field: type "message"
		"event:violation\ndata:{\"sample_index\":8}\n\n" + // no space after the colon
		"event: violation\ndata: {\"sample_index\":9}\n" // torn: never dispatched
	var comments []string
	var events []sseEvent
	err := readSSE(strings.NewReader(stream),
		func(c string) { comments = append(comments, c) },
		func(ev sseEvent) bool { events = append(events, ev); return true })
	if err != nil {
		t.Fatal(err)
	}
	want := []sseEvent{
		{"violation", `{"sample_index":7}`},
		{"dropped", `{"dropped":3}`},
		{"message", "first line\nsecond line"},
		{"violation", `{"sample_index":8}`},
	}
	if len(events) != len(want) {
		t.Fatalf("got %d events %+v, want %d", len(events), events, len(want))
	}
	for i := range want {
		if events[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, events[i], want[i])
		}
	}
	if len(comments) != 2 || comments[0] != "omg-collector live tail" || comments[1] != "heartbeat" {
		t.Errorf("comments = %q", comments)
	}
}

func TestReadSSEStopsWhenAsked(t *testing.T) {
	n := 0
	readSSE(strings.NewReader("event: end\ndata: bye\n\nevent: violation\ndata: {}\n\n"), nil,
		func(ev sseEvent) bool { n++; return ev.Type != "end" })
	if n != 1 {
		t.Errorf("read %d events after being told to stop at the first", n)
	}
}
