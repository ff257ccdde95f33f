package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"perspectron"
	"perspectron/internal/telemetry"
)

func TestVerdictScannerSkipsCorruptKeepsPartial(t *testing.T) {
	reg := telemetry.Enable()
	defer telemetry.Disable()
	input := `{"worker":"w","episode":1,"sample":1,"mode":"detector","score":0.5,"flagged":true}` + "\n" +
		"this is not json\n" +
		"\n" + // blank lines are tolerated silently
		`{"worker":"w","episode":1,"sample":2,"mode":"detector","score":-0.2}` + "\n"
	partial := `{"worker":"w","episode":1,"sa` // writer mid-record, no newline
	sc := NewVerdictScanner(strings.NewReader(input + partial))

	var recs []VerdictRecord
	for {
		rec, ok := sc.Next()
		if !ok {
			break
		}
		recs = append(recs, rec)
	}
	if len(recs) != 2 {
		t.Fatalf("decoded %d records, want 2", len(recs))
	}
	if !recs[0].Flagged || recs[0].Sample != 1 || recs[1].Sample != 2 {
		t.Fatalf("records decoded wrong: %+v", recs)
	}
	if sc.Corrupt() != 1 {
		t.Fatalf("corrupt count = %d, want 1", sc.Corrupt())
	}
	if sc.Err() != nil {
		t.Fatalf("scanner error: %v", sc.Err())
	}
	// The trailing partial line is NOT consumed: the resume offset stops at
	// the last complete line, so a later read picks the record up whole.
	if got, want := sc.Consumed(), int64(len(input)); got != want {
		t.Fatalf("consumed %d bytes, want %d (partial line must not count)", got, want)
	}
	if got := reg.CounterValue("perspectron_verdict_corrupt_lines_total"); got != 1 {
		t.Fatalf("corrupt-line counter = %d, want 1", got)
	}
}

func TestReadVerdictLogOffsetResume(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "verdicts.jsonl")

	// A missing file is an empty tail, not an error.
	recs, corrupt, next, err := ReadVerdictLog(path, 0)
	if err != nil || len(recs) != 0 || corrupt != 0 || next != 0 {
		t.Fatalf("missing file: recs=%d corrupt=%d next=%d err=%v", len(recs), corrupt, next, err)
	}

	full := `{"worker":"w","episode":1,"sample":1,"mode":"detector","score":1,"version":"abc"}` + "\n" +
		"garbage line\n" +
		`{"worker":"w","episode":1,"sample":2,"mode":"detector","score":2}` + "\n"
	partial := `{"worker":"w","episode":1,"sample":3`
	if err := os.WriteFile(path, []byte(full+partial), 0o644); err != nil {
		t.Fatal(err)
	}

	recs, corrupt, next, err = ReadVerdictLog(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || corrupt != 1 {
		t.Fatalf("first tail: recs=%d corrupt=%d, want 2/1", len(recs), corrupt)
	}
	if recs[0].Version != "abc" {
		t.Fatalf("version not decoded: %+v", recs[0])
	}
	if next != int64(len(full)) {
		t.Fatalf("resume offset = %d, want %d", next, len(full))
	}

	// The writer finishes the partial record and appends another; resuming
	// from the returned offset sees both, with nothing dropped or re-read.
	rest := `,"mode":"detector","score":3}` + "\n" +
		`{"worker":"w","episode":2,"sample":4,"mode":"detector","score":4}` + "\n"
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(rest); err != nil {
		t.Fatal(err)
	}
	f.Close()

	recs, corrupt, next2, err := ReadVerdictLog(path, next)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || corrupt != 0 {
		t.Fatalf("resumed tail: recs=%d corrupt=%d, want 2/0", len(recs), corrupt)
	}
	if recs[0].Sample != 3 || recs[1].Sample != 4 {
		t.Fatalf("resumed records wrong: %+v", recs)
	}
	if want := next + int64(len(partial)+len(rest)); next2 != want {
		t.Fatalf("final offset = %d, want %d", next2, want)
	}
}

// FuzzVerdictScanner holds the scanner to its tailing contract on arbitrary
// bytes: it never panics, it consumes exactly the complete lines (the rest
// is at most one partial line), every non-blank complete line is either a
// record or a counted corrupt line, and every record it returns re-encodes
// to a line it scans back as one record.
func FuzzVerdictScanner(f *testing.F) {
	var logged bytes.Buffer
	vl := NewVerdictLog(&logged)
	vl.record(VerdictRecord{
		Worker: "spectreV1", Episode: 1, Sample: 7, Mode: "detector", Version: "abc123",
		Score: 0.625, Flagged: true, Coverage: 1, Shard: 1, LatencyMs: 0.25,
		Trace: "spectreV1/1/7", QueueMs: 0.125, BatchMs: 0.0625, ScoreMs: 0.03125,
		Fired: []int{2, 5, 11},
		Attr:  []perspectron.Contribution{{Slot: 5, Feature: "dcache.misses", Weight: 0.5, Share: 0.25}},
	})
	if err := vl.flush(); err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		logged.String(),
		logged.String() + "this is not json\n" + logged.String(),
		logged.String() + logged.String()[:logged.Len()/2], // torn last line
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := NewVerdictScanner(bytes.NewReader(data))
		var recs []VerdictRecord
		for {
			rec, ok := sc.Next()
			if !ok {
				break
			}
			recs = append(recs, rec)
		}
		if sc.Err() != nil {
			t.Fatalf("in-memory read failed: %v", sc.Err())
		}
		c := sc.Consumed()
		if c < 0 || c > int64(len(data)) || (c > 0 && data[c-1] != '\n') {
			t.Fatalf("consumed %d of %d bytes, not a line boundary", c, len(data))
		}
		if bytes.IndexByte(data[c:], '\n') >= 0 {
			t.Fatalf("a complete line was left unconsumed after offset %d", c)
		}
		lines := 0
		for _, line := range bytes.Split(data[:c], []byte("\n")) {
			if len(bytes.TrimSpace(line)) > 0 {
				lines++
			}
		}
		if len(recs)+sc.Corrupt() != lines {
			t.Fatalf("%d records + %d corrupt != %d non-blank lines", len(recs), sc.Corrupt(), lines)
		}
		for _, rec := range recs {
			line, err := json.Marshal(rec)
			if err != nil {
				t.Fatalf("re-encoding %+v: %v", rec, err)
			}
			again := NewVerdictScanner(bytes.NewReader(append(line, '\n')))
			back, ok := again.Next()
			if !ok || again.Corrupt() != 0 {
				t.Fatalf("re-encoded record %s did not scan back (corrupt %d)", line, again.Corrupt())
			}
			if _, more := again.Next(); more {
				t.Fatalf("re-encoded record %s scanned as more than one", line)
			}
			if line2, _ := json.Marshal(back); !bytes.Equal(line, line2) {
				t.Fatalf("re-encoding not stable: %s then %s", line, line2)
			}
		}
	})
}
