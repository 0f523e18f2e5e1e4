// Package history persists certified transactional histories as JSON
// and replays them through a fresh shadow machine — offline
// certification: record a run on one machine, verify the Theorem 5.17
// certificate anywhere.
//
// A history file carries its own object declarations, so replay needs
// no out-of-band registry; the declared types are instantiated from the
// standard specification catalogue (internal/adt).
package history

import (
	"encoding/json"
	"fmt"
	"io"

	"pushpull/internal/adt"
	"pushpull/internal/spec"
	"pushpull/internal/trace"
)

// ObjectDecl declares one object instance and its specification type.
type ObjectDecl struct {
	Name string `json:"name"`
	Type string `json:"type"` // register | set | map | counter | queue
}

// File is a recorded history: the object universe plus every committed
// transaction, in commit order, with observed return values.
type File struct {
	// FormatVersion guards future schema changes.
	FormatVersion int                  `json:"format_version"`
	Objects       []ObjectDecl         `json:"objects"`
	Txns          []trace.JournalEntry `json:"txns"`
}

// CurrentFormat is the schema version written by Save.
const CurrentFormat = 1

// specFor instantiates a specification by type name.
func specFor(typ string) (spec.Object, error) {
	switch typ {
	case "register":
		return adt.Register{}, nil
	case "set":
		return adt.Set{}, nil
	case "map":
		return adt.Map{}, nil
	case "counter":
		return adt.Counter{}, nil
	case "queue":
		return adt.Queue{}, nil
	default:
		return nil, fmt.Errorf("history: unknown specification type %q", typ)
	}
}

// Registry builds the registry a file declares.
func (f *File) Registry() (*spec.Registry, error) {
	r := spec.NewRegistry()
	for _, d := range f.Objects {
		obj, err := specFor(d.Type)
		if err != nil {
			return nil, err
		}
		r.Register(d.Name, obj)
	}
	return r, nil
}

// Capture snapshots a recorder's journal into a File. decls must cover
// every object the journal touches.
func Capture(rec *trace.Recorder, decls []ObjectDecl) *File {
	return &File{
		FormatVersion: CurrentFormat,
		Objects:       decls,
		Txns:          rec.JournalEntries(),
	}
}

// Save writes the history as indented JSON.
func Save(w io.Writer, f *File) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// Load parses a history file.
func Load(r io.Reader) (*File, error) {
	var f File
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("history: %w", err)
	}
	if f.FormatVersion != CurrentFormat {
		return nil, fmt.Errorf("history: unsupported format version %d", f.FormatVersion)
	}
	return &f, nil
}

// ReplayReport summarizes an offline certification: the certified
// count, the exact violation count, and the violations the recorder
// retained (the first and the most recent).
type ReplayReport struct {
	Certified  int
	Refused    int
	Violations []trace.Violation
}

// Err returns nil iff every transaction certified.
func (r ReplayReport) Err() error {
	if r.Refused == 0 {
		return nil
	}
	return fmt.Errorf("history: %d violations; first: %v", r.Refused, r.Violations[0])
}

// Replay re-certifies the recorded history on a fresh shadow machine:
// each transaction is replayed, in recorded order, as the commit-time
// decomposition PULL*;APP*;PUSH*;CMT with every criterion checked and
// every recorded return value validated against the sequential
// specification. This is the offline form of the Theorem 5.17
// certificate.
func Replay(f *File) (ReplayReport, error) {
	reg, err := f.Registry()
	if err != nil {
		return ReplayReport{}, err
	}
	rec := trace.NewRecorder(reg)
	for _, txn := range f.Txns {
		rec.AtomicTxn(txn.Name, txn.Ops)
	}
	rep := ReplayReport{Certified: rec.Commits(), Refused: rec.ViolationCount(), Violations: rec.Violations()}
	if err := rec.FinalCheck(); err != nil && len(rep.Violations) == 0 {
		return rep, err
	}
	return rep, nil
}
