package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"repro/datalog"
)

// genDurableDir writes durable-write's starting data directory: the base
// facts in one commit, a checkpoint of them, then the fixed log suffix of
// region transactions. Recovery at setup loads the checkpoint and replays
// the suffix. The directory is input, not measured work, so it is written
// without fsync and sealed by Close.
func genDurableDir(dir string, d *durableSpec) error {
	db, err := datalog.Open(dir, datalog.OpenOptions{Fsync: datalog.FsyncNone})
	if err != nil {
		return err
	}
	commit := func(retracts, asserts []fact) error {
		txn := db.Begin()
		for _, f := range retracts {
			if err := txn.Retract(f.pred, anyArgs(f.args)...); err != nil {
				return err
			}
		}
		for _, f := range asserts {
			if err := txn.Assert(f.pred, anyArgs(f.args)...); err != nil {
				return err
			}
		}
		return txn.Commit()
	}
	if err := commit(nil, d.initial); err != nil {
		db.Close()
		return err
	}
	if err := db.Checkpoint(); err != nil {
		db.Close()
		return err
	}
	for _, t := range d.suffix {
		if err := commit(edgeFacts("par", t[0]), edgeFacts("par", t[1])); err != nil {
			db.Close()
			return err
		}
	}
	return db.Close()
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, de := range ents {
		if !de.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, de.Name()), filepath.Join(dst, de.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// verifyRecovery reopens a sealed data directory and checks that recovery
// re-establishes the last acknowledged version and exactly the base facts
// the oracle holds: every client region's edges plus the static
// same-generation data.
func verifyRecovery(dir string, lastAck uint64, d *durableSpec, regions []*regionState) error {
	db, err := datalog.Open(dir, datalog.OpenOptions{Fsync: datalog.FsyncNone})
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer db.Close()
	st, _ := db.DurabilityStats()
	if st.RecoveredVersion != lastAck || db.Version() != lastAck {
		return fmt.Errorf("recovered version %d, last acknowledged commit was %d", st.RecoveredVersion, lastAck)
	}
	if !st.CleanShutdown {
		return fmt.Errorf("the sealed log did not recover as a clean shutdown")
	}
	want := map[string][]string{}
	for _, f := range d.initial {
		if f.pred != "par" {
			want[f.pred] = append(want[f.pred], f.args[0]+" "+f.args[1])
		}
	}
	for _, r := range regions {
		for _, e := range r.order {
			want["par"] = append(want["par"], e[0]+" "+e[1])
		}
	}
	prog, err := datalog.Compile("parc(X, Y) :- par(X, Y).\nupc(X, Y) :- up(X, Y).\nflatc(X, Y) :- flat(X, Y).\ndownc(X, Y) :- down(X, Y).\n")
	if err != nil {
		return err
	}
	snap := db.Snapshot().With(prog)
	for pred, facts := range want {
		res, err := snap.Query(pred+"c(X, Y)", datalog.Options{Strategy: datalog.SemiNaive})
		if err != nil {
			return fmt.Errorf("reading recovered %s: %w", pred, err)
		}
		got := make([]string, len(res.Answers))
		for i, a := range res.Answers {
			got[i] = a.Values[0] + " " + a.Values[1]
		}
		sort.Strings(got)
		sort.Strings(facts)
		if !slices.Equal(got, facts) {
			return fmt.Errorf("recovered %d %s facts, the oracle holds %d", len(got), pred, len(facts))
		}
	}
	return nil
}
