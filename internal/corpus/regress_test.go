package corpus_test

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"l2fuzz/internal/bt/device"
	"l2fuzz/internal/corpus"
)

// TestCommittedCorpusRegresses is `l2repro -minimize regress` over the
// long-lived corpus under testdata/regress, run without and with the
// custom speaker's spec passed in: every entry replays on its own —
// catalog entries by ID, the speaker's from the spec it embeds —
// reproduces its signature and still minimizes, and a passed spec
// rebuilds only the entries of its own target. A stored speaker entry
// put again keeps its spec, in the struct form.
//
// The corpus was written by
//
//	l2farm -devices D2,D5 -device-file internal/corpus/testdata/regress-speaker.json \
//	  -fuzzers l2fuzz,rfcomm,sdp,sm,campaign -seed 1 -quiet -corpus internal/corpus/testdata/regress
//
// and `l2repro -corpus internal/corpus/testdata/regress -write minimize KEY`
// for every key, before entries carried Entry.TargetSpec: its speaker
// entries embed the spec in the JSON form DecodeSpec reads, under "spec".
// No test rewrites it; its entries are historical witnesses.
func TestCommittedCorpusRegresses(t *testing.T) {
	store, err := corpus.Open(filepath.Join("testdata", "regress"))
	if err != nil {
		t.Fatal(err)
	}
	entries, err := store.Entries()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join("testdata", "regress-speaker.json"))
	if err != nil {
		t.Fatal(err)
	}
	speaker, err := device.DecodeSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	out, err := corpus.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	var catalog, custom int
	for _, e := range entries {
		key := corpus.KeyOf(e.Signature)
		if device.IsCatalogID(e.Trace.Target) {
			catalog++
		} else {
			custom++
			if e.TargetSpec == nil || !reflect.DeepEqual(*e.TargetSpec, speaker) {
				t.Errorf("%s: embedded spec %+v, want the speaker's", key, e.TargetSpec)
			}
			if err := out.Put(e); err != nil {
				t.Fatal(err)
			}
			again, err := out.GetKey(key)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(again.TargetSpec, e.TargetSpec) {
				t.Errorf("%s: spec changed through Put: %+v", key, again.TargetSpec)
			}
		}
		for _, cfg := range []corpus.ReplayConfig{{}, {Spec: &speaker}} {
			res, err := corpus.Replay(e, cfg)
			if err != nil {
				t.Errorf("%s on %s, spec passed %v: %v", key, e.Trace.Target, cfg.Spec != nil, err)
				continue
			}
			if !res.Reproduced {
				t.Errorf("%s on %s, spec passed %v: recorded %v, observed %v",
					key, e.Trace.Target, cfg.Spec != nil, e.Signature, res.Signature)
				continue
			}
			if _, err := corpus.Minimize(e, corpus.MinimizeConfig{ReplayConfig: cfg}); err != nil {
				t.Errorf("%s, spec passed %v: reproduces but no longer minimizes: %v", key, cfg.Spec != nil, err)
			}
		}
	}
	if catalog == 0 || custom == 0 {
		t.Errorf("committed corpus holds %d catalog and %d custom-target entries, want both", catalog, custom)
	}
}
