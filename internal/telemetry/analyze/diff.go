package analyze

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"strings"

	"l2fuzz/internal/bt/device"
	"l2fuzz/internal/core"
	"l2fuzz/internal/fleet/record"
)

// Diff compares what two journals of one config must agree on,
// whatever the worker schedule: the job-done records, keyed by matrix
// index, and the finding records, keyed by signature, each reduced to
// its Deterministic part; and the target specs, by name, where both
// headers carry them (schema version 4). Record order is ignored. Each
// line names one record and its first differing field, or says that
// only journal A or only journal B holds it; no lines means the same
// behaviour.
func Diff(a, b *Run) []string {
	var out []string
	jobs := func(r *Run) map[int]record.Result {
		m := make(map[int]record.Result, len(r.Jobs))
		for _, j := range r.Jobs {
			m[j.Job.Index] = j.Deterministic()
		}
		return m
	}
	out = diffKeyed(out, jobs(a), jobs(b), cmp.Compare[int], func(i int, r record.Result) string {
		return fmt.Sprintf("job %d (%s %s %s/%d)", i, r.Job.Device, r.Job.Kind, r.Job.Variant, r.Job.Shard)
	})
	findings := func(r *Run) map[core.Signature]record.Finding {
		m := make(map[core.Signature]record.Finding, len(r.Findings))
		for _, f := range r.Findings {
			m[f.Record.Signature] = f.Deterministic()
		}
		return m
	}
	out = diffKeyed(out, findings(a), findings(b), func(x, y core.Signature) int {
		return cmp.Or(cmp.Compare(x.State, y.State), cmp.Compare(x.PSM, y.PSM), cmp.Compare(x.Class, y.Class))
	}, func(s core.Signature, _ record.Finding) string { return "finding " + s.String() })
	if len(a.Header.Specs) > 0 && len(b.Header.Specs) > 0 {
		specs := func(r *Run) map[string]*device.Spec {
			m := make(map[string]*device.Spec, len(r.Header.Specs))
			for _, s := range r.Header.Specs {
				if s != nil {
					m[s.Name] = s
				}
			}
			return m
		}
		out = diffKeyed(out, specs(a), specs(b), strings.Compare, func(name string, _ *device.Spec) string { return "spec " + name })
	}
	return out
}

// diffKeyed appends one line per key whose records differ or that one
// side lacks, in key order.
func diffKeyed[K comparable, V any](out []string, a, b map[K]V, order func(K, K) int, label func(K, V) string) []string {
	keys := make([]K, 0, len(a)+len(b))
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	slices.SortFunc(keys, order)
	for _, k := range keys {
		x, inA := a[k]
		y, inB := b[k]
		switch {
		case !inB:
			out = append(out, label(k, x)+": only in A")
		case !inA:
			out = append(out, label(k, y)+": only in B")
		default:
			if path, vx, vy, ok := firstDiff("", reflect.ValueOf(x), reflect.ValueOf(y)); ok {
				out = append(out, fmt.Sprintf("%s: %s: %s != %s", label(k, x), path, vx, vy))
			}
		}
	}
	return out
}

// firstDiff returns the path of the first field, in declaration order,
// at which a and b differ, with the two values there; ok is false when
// they agree. Paths use the JSON field names, and fields JSON leaves
// out (unexported, or tagged "-") are skipped, since no journal holds
// them. A nil slice equals an empty one, as both decode from a
// journal.
func firstDiff(path string, a, b reflect.Value) (at, va, vb string, ok bool) {
	switch a.Kind() {
	case reflect.Struct:
		for i := range a.NumField() {
			f := a.Type().Field(i)
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if !f.IsExported() || name == "-" {
				continue
			}
			p := path
			if name == "" && !f.Anonymous {
				name = f.Name
			}
			if name != "" {
				p = strings.TrimPrefix(path+"."+name, ".")
			}
			if at, va, vb, ok := firstDiff(p, a.Field(i), b.Field(i)); ok {
				return at, va, vb, true
			}
		}
		return "", "", "", false
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return path, fmt.Sprintf("%d entries", a.Len()), fmt.Sprintf("%d entries", b.Len()), true
		}
		for i := range a.Len() {
			if at, va, vb, ok := firstDiff(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i)); ok {
				return at, va, vb, true
			}
		}
		return "", "", "", false
	case reflect.Pointer:
		if !a.IsNil() && !b.IsNil() {
			return firstDiff(path, a.Elem(), b.Elem())
		}
	}
	if reflect.DeepEqual(a.Interface(), b.Interface()) {
		return "", "", "", false
	}
	return path, fmt.Sprint(a.Interface()), fmt.Sprint(b.Interface()), true
}
