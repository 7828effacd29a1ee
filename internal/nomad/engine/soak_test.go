package engine

import (
	"bytes"
	"context"
	"net/http"
	"strings"
	"testing"
)

// runQuickSoak runs a small chaos soak and returns its report and output.
func runQuickSoak(t *testing.T, seed int64) (*SoakReport, string) {
	t.Helper()
	var buf bytes.Buffer
	rep, err := RunSoak(context.Background(), SoakConfig{
		Devices: 250,
		Days:    2,
		Seed:    seed,
		Shards:  4,
		Out:     &buf,
	})
	if err != nil {
		t.Fatalf("soak failed: %v\n%s", err, buf.String())
	}
	return rep, buf.String()
}

// TestSoakQuickReplaysByteIdentically: the deterministic soak evidence —
// the digest line — is byte-identical across same-seed runs even though
// the chaos interleaving is not, and every assertion holds under faults.
func TestSoakQuickReplaysByteIdentically(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak over real TCP; skipped in -short")
	}
	repA, outA := runQuickSoak(t, 11)
	repB, outB := runQuickSoak(t, 11)
	if !repA.OK() || !repB.OK() {
		t.Fatalf("soak assertions failed:\n%s\n%s", outA, outB)
	}
	if repA.Digest != repB.Digest || repA.Records != repB.Records ||
		repA.Batches != repB.Batches || repA.Events != repB.Events {
		t.Fatalf("same-seed soaks diverged:\nA: %+v\nB: %+v", repA, repB)
	}
	lineA, lineB := soakDigestLine(outA), soakDigestLine(outB)
	if lineA == "" || lineA != lineB {
		t.Fatalf("digest lines diverged:\nA: %q\nB: %q", lineA, lineB)
	}
	// Chaos actually fired: a soak without faults proves nothing.
	if repA.Faults.Refused+repA.Faults.Reset == 0 {
		t.Fatal("no connections were refused or reset; chaos never engaged")
	}
	// A different seed ingests a different stream.
	repC, _ := runQuickSoak(t, 12)
	if repC.Digest == repA.Digest {
		t.Fatal("different seeds produced identical soak digests")
	}
}

// soakDigestLine extracts the grep-able digest line from soak output.
func soakDigestLine(out string) string {
	for _, ln := range strings.Split(out, "\n") {
		if strings.Contains(ln, "digest=") {
			return ln
		}
	}
	return ""
}

// The soak's ingest server bounds header reads, so a stalled uploader
// cannot hold a server goroutine forever.
func TestIngestServerSetsReadHeaderTimeout(t *testing.T) {
	hs := newIngestServer(http.NotFoundHandler())
	if got := hs.ReadHeaderTimeout; got != ingestReadHeaderTimeout || got <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, want %v", got, ingestReadHeaderTimeout)
	}
}
