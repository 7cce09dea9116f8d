package corpus

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzStoreRoundTrip feeds arbitrary bytes to the store's loader as a
// stored entry file. GetKey either rejects them or returns an entry.
// For every entry that loads and validates, Put's streamed file must
// equal json.MarshalIndent of the entry (its in-memory finding trace
// cleared) plus a newline, the reference the writer replaces, and
// loading that file and putting it again must write the same bytes.
func FuzzStoreRoundTrip(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "entry.golden.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		in, err := Open(filepath.Join(dir, "in"))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(in.dir, "input.json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		e, err := in.GetKey("input")
		if err != nil || e.Validate() != nil {
			return
		}
		ref := e
		ref.Finding.Trace = nil
		ref.Finding.TraceTruncated = false
		want, err := json.MarshalIndent(ref, "", "  ")
		if err != nil {
			t.Fatalf("a loaded entry does not re-encode: %v", err)
		}
		want = append(want, '\n')

		out, err := Open(filepath.Join(dir, "out"))
		if err != nil {
			t.Fatal(err)
		}
		put := func(e Entry) []byte {
			t.Helper()
			if err := out.Put(e); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(out.path(KeyOf(e.Signature)))
			if err != nil {
				t.Fatal(err)
			}
			return got
		}
		got := put(e)
		if !bytes.Equal(got, want) {
			t.Fatalf("Put wrote:\n%s\nMarshalIndent writes:\n%s", got, want)
		}
		again, err := out.GetKey(KeyOf(e.Signature))
		if err != nil {
			t.Fatal(err)
		}
		if got2 := put(again); !bytes.Equal(got2, got) {
			t.Fatalf("a stored entry put again changed:\n%s\nwas:\n%s", got2, got)
		}
	})
}
