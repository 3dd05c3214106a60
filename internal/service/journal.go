package service

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/scenario"
)

// journal is the write-ahead job log that makes accepted work survive a
// crash: every submission that is not served straight from the cache is
// persisted as one JSON file under the journal directory before the
// submit response reaches the client, and the file is removed when the
// job reaches a client-driven terminal state (done, failed, or an explicit
// DELETE). A `kill -9` therefore leaves exactly the accepted-but-
// unsettled jobs on disk, and the next process with the same -journal-dir
// resubmits them at startup — results land in the content-addressed
// cache, so recovered work is byte-identical to an uninterrupted run and
// specs that had already completed are served without recomputation.
//
// Graceful shutdown deliberately retains entries too: Close cancels
// queued and running jobs to let the process exit, but those
// cancellations are the server's doing, not the client's, so the work is
// still owed and is recovered on restart (the shutdown-under-load
// contract). A cancel requested before the drain began is the client's:
// it settles the entry even when the drain's cut is what ends the job.
//
// Writes use the same tmp+rename protocol as the disk cache: a crash
// mid-write leaves only a ".tmp-" file (swept at startup), never a
// half-written entry, and load tolerates unreadable or non-JSON entries
// by skipping them — a corrupt journal degrades to losing that one job,
// never to a startup failure.
type journal struct {
	dir string
}

// journalEntry is the persisted form of one accepted job: everything
// submit needs to reconstruct it.
type journalEntry struct {
	// ID is the job's handle in the process that accepted it, and the
	// entry's file is named "<ID>.json". load takes the ID from the file
	// name, never from this field (recovery assigns fresh IDs).
	ID string `json:"id"`
	// Spec is the canonical scenario JSON (scenario.Spec.CanonicalJSON),
	// re-parsed with the same strict parser at recovery.
	Spec json.RawMessage `json:"spec"`
	// Reps and Priority echo the submission knobs.
	Reps     int `json:"reps"`
	Priority int `json:"priority"`
	// Deadline, when set, is the job's absolute completion deadline; an
	// entry recovered past it fails immediately rather than running.
	Deadline time.Time `json:"deadline,omitempty"`
}

// newJournal opens (creating if needed) the journal directory and sweeps
// stale ".tmp-" write debris. Errors are reported but leave a usable
// nil-journal path: callers treat a nil *journal as journaling disabled.
func newJournal(dir string) (*journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
	return &journal{dir: dir}, nil
}

// append persists one entry write-ahead: tmp file + rename, fsync-free by
// design (the journal trades the last-instant write for zero submit-path
// latency cliffs; a crash can lose at most entries whose rename had not
// landed, which is the same window as the response not having been sent).
// Safe on a nil receiver: journaling disabled.
func (jl *journal) append(e journalEntry) error {
	if jl == nil {
		return nil
	}
	b, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(jl.dir, ".tmp-"+e.ID+"-")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(append(b, '\n')); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	return os.Rename(name, filepath.Join(jl.dir, e.ID+".json"))
}

// remove deletes the entry for id; best-effort and nil-safe.
func (jl *journal) remove(id string) {
	if jl == nil {
		return
	}
	os.Remove(filepath.Join(jl.dir, id+".json"))
}

// load reads every journal entry, oldest job ID first (IDs are zero-padded
// sequence numbers, so lexical order is submission order within one
// process life). Unreadable or malformed files are skipped, not fatal.
// Each entry's ID is its file name's stem, whatever its "id" field says:
// recovery seeds the job ID counter from it and removes the file by it, so
// a stale or hostile field can neither pin a file across restarts nor
// name a file outside the journal.
func (jl *journal) load() []journalEntry {
	if jl == nil {
		return nil
	}
	files, err := os.ReadDir(jl.dir)
	if err != nil {
		return nil
	}
	var out []journalEntry
	for _, f := range files {
		id, isEntry := strings.CutSuffix(f.Name(), ".json")
		if f.IsDir() || !isEntry {
			continue
		}
		b, err := os.ReadFile(filepath.Join(jl.dir, f.Name()))
		if err != nil {
			continue
		}
		var e journalEntry
		if err := json.Unmarshal(b, &e); err != nil || len(e.Spec) == 0 {
			continue
		}
		e.ID = id
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// len reports the number of persisted entries; nil-safe, for tests and
// shutdown assertions.
func (jl *journal) len() int {
	if jl == nil {
		return 0
	}
	files, err := os.ReadDir(jl.dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, f := range files {
		if !f.IsDir() && strings.HasSuffix(f.Name(), ".json") {
			n++
		}
	}
	return n
}

// parseEntrySpec re-parses a journal entry's canonical spec through the
// strict scenario parser, so recovery validates exactly like a fresh
// submission.
func parseEntrySpec(e journalEntry) (*scenario.Spec, error) {
	return scenario.Parse(bytes.NewReader(e.Spec))
}
