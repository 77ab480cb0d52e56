package web

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/fnjv"
)

// withArchive attaches an archival store at LevelSimplifiedFormat to a test
// server's System and archives the first n records, returning their
// manifests.
func withArchive(t *testing.T, wsys *System, n int) []archive.Manifest {
	t.Helper()
	root := t.TempDir()
	vols := make([]string, 3)
	for i := range vols {
		vols[i] = filepath.Join(root, fmt.Sprintf("vol%d", i))
	}
	store, err := archive.OpenStore(vols)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := wsys.Core.NewPreservationManager(store, core.LevelSimplifiedFormat)
	if err != nil {
		t.Fatal(err)
	}
	wsys.Preservation = pm
	var out []archive.Manifest
	var scanErr error
	err = wsys.Core.Records.Scan(func(rec *fnjv.Record) bool {
		if n == 0 {
			return false
		}
		n--
		ms, err := pm.Archive(rec, "")
		if err != nil {
			scanErr = err
			return false
		}
		out = append(out, ms...)
		return true
	})
	if err == nil {
		err = scanErr
	}
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestArchivePageListsObjectsAndFixity(t *testing.T) {
	srv, wsys, _ := testServer(t)
	manifests := withArchive(t, wsys, 5)

	code, body := get(t, srv.URL+"/archive")
	if code != 200 {
		t.Fatalf("GET /archive = %d", code)
	}
	if !strings.Contains(body, "archived objects across 3 replica volumes") {
		t.Fatalf("archive page missing summary:\n%s", body)
	}
	for _, m := range manifests {
		if !strings.Contains(body, m.ID[:12]) {
			t.Fatalf("archive page missing object %s", m.ID)
		}
	}
	if strings.Contains(body, "quarantined") {
		t.Fatal("healthy store shows a quarantine section")
	}

	// Damage one replica: the page shows the degraded fixity, the scrub
	// trigger repairs it.
	id := manifests[0].ID
	if err := archive.CorruptReplica(wsys.Preservation.Store.Volumes()[0], id, 40); err != nil {
		t.Fatal(err)
	}
	// Stat on the listing re-hashes, so damage shows before any scrub.
	_, body = get(t, srv.URL+"/archive")
	if !strings.Contains(body, "2/3 healthy") {
		t.Fatalf("damaged object not flagged:\n%s", body)
	}
	_, body = get(t, srv.URL+"/archive?scrub=1")
	if !strings.Contains(body, "<b>1 repaired</b>") {
		t.Fatalf("scrub trigger did not report the repair:\n%s", body)
	}
	if strings.Contains(body, "2/3 healthy") {
		t.Fatal("object still flagged after repair")
	}
}

// TestArchivePageListsShortIDs: the listing takes IDs from any *.aip file on a
// volume, so a stray short name is listed, not sliced past its end.
func TestArchivePageListsShortIDs(t *testing.T) {
	srv, wsys, _ := testServer(t)
	withArchive(t, wsys, 1)
	stray := filepath.Join(wsys.Preservation.Store.Volumes()[0], "objects", "x.aip")
	if err := os.WriteFile(stray, []byte("not an AIP"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, body := get(t, srv.URL+"/archive")
	if code != 200 {
		t.Fatalf("GET /archive with a stray x.aip = %d:\n%s", code, body)
	}
	if !strings.Contains(body, `<a href="/archive/x">x</a>`) {
		t.Fatalf("stray object x not listed:\n%s", body)
	}
}

func TestArchiveObjectPageShowsReplicas(t *testing.T) {
	srv, wsys, _ := testServer(t)
	manifests := withArchive(t, wsys, 2)
	m := manifests[0]

	code, body := get(t, srv.URL+"/archive/"+m.ID)
	if code != 200 {
		t.Fatalf("GET /archive/%s = %d", m.ID, code)
	}
	for _, want := range []string{m.SHA256, m.SourceID, "vol0", "vol1", "vol2"} {
		if !strings.Contains(body, want) {
			t.Fatalf("object page missing %q:\n%s", want, body)
		}
	}
	if got := strings.Count(body, ">healthy<"); got != 3 {
		t.Fatalf("healthy replica rows = %d, want 3", got)
	}

	if err := archive.DeleteReplica(wsys.Preservation.Store.Volumes()[2], m.ID); err != nil {
		t.Fatal(err)
	}
	_, body = get(t, srv.URL+"/archive/"+m.ID)
	if !strings.Contains(body, ">missing<") {
		t.Fatalf("deleted replica not shown missing:\n%s", body)
	}

	code, _ = get(t, srv.URL+"/archive/no-such-object")
	if code != 404 {
		t.Fatalf("GET unknown object = %d, want 404", code)
	}
}

func TestArchivePageSurfacesQuarantine(t *testing.T) {
	srv, wsys, _ := testServer(t)
	manifests := withArchive(t, wsys, 3)
	id := manifests[0].ID
	for _, vol := range wsys.Preservation.Store.Volumes() {
		if err := archive.CorruptReplica(vol, id, 10); err != nil {
			t.Fatal(err)
		}
	}
	_, body := get(t, srv.URL+"/archive?scrub=1")
	if !strings.Contains(body, "1 unrecoverable") {
		t.Fatalf("scrub did not report the unrecoverable object:\n%s", body)
	}
	if !strings.Contains(body, "quarantined (unrecoverable)") || !strings.Contains(body, id) {
		t.Fatalf("quarantined object not surfaced at /archive:\n%s", body)
	}
}

func TestArchivePagesWithoutStore(t *testing.T) {
	srv, _, _ := testServer(t)
	code, body := get(t, srv.URL+"/archive")
	if code != 200 || !strings.Contains(body, "No archival store configured") {
		t.Fatalf("GET /archive without store = %d:\n%s", code, body)
	}
	code, _ = get(t, srv.URL+"/archive/abc")
	if code != 404 {
		t.Fatalf("GET /archive/abc without store = %d, want 404", code)
	}
}

type metricsObs struct {
	ID           string             `json:"id"`
	Entity       string             `json:"entity"`
	Protocol     string             `json:"protocol"`
	Measurements map[string]float64 `json:"measurements"`
}

func TestMetricsEndpoint(t *testing.T) {
	srv, wsys, _ := testServer(t)
	withArchive(t, wsys, 4)
	if _, err := wsys.Preservation.VerifyArchive(context.Background()); err != nil {
		t.Fatal(err)
	}
	// /detect?run=1 records the outcome whose writer metrics the
	// provenance-writer row snapshots.
	if code, _ := get(t, srv.URL+"/detect?run=1"); code != 200 {
		t.Fatal("GET /detect?run=1 failed")
	}

	code, body := get(t, srv.URL+"/metrics")
	if code != 200 {
		t.Fatalf("GET /metrics = %d", code)
	}
	var out []metricsObs
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("metrics is not JSON: %v\n%s", err, body)
	}
	got := map[string]metricsObs{}
	for _, o := range out {
		got[strings.TrimPrefix(o.Entity, "subsystem:")] = o
	}
	for _, want := range []string{"engine", "provenance-writer", "archive-scrubber"} {
		if _, ok := got[want]; !ok {
			t.Fatalf("metrics missing subsystem %q; have %v", want, body)
		}
	}
	if got["engine"].Measurements["engine.invocations"] < 1 {
		t.Fatalf("engine counters empty: %+v", got["engine"])
	}
	if got["archive-scrubber"].Measurements["archive.scrub.passes"] != 1 {
		t.Fatalf("scrubber counters: %+v", got["archive-scrubber"])
	}
	if got["archive-scrubber"].Measurements["archive.scrub.objects"] < 4 {
		t.Fatalf("scrubber scanned too few objects: %+v", got["archive-scrubber"])
	}
	if got["provenance-writer"].Measurements["provenance.writer.flushed"] < 1 {
		t.Fatalf("provenance-writer counters: %+v", got["provenance-writer"])
	}
	if got["engine"].Protocol == "" || got["engine"].ID == "" {
		t.Fatalf("observation shape: %+v", got["engine"])
	}
}
