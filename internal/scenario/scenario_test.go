package scenario

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

func parse(t *testing.T, doc string) *Spec {
	t.Helper()
	s, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestParseValidScenario(t *testing.T) {
	s := parse(t, `{
		"platform": "am57", "seed": 7, "duration_ms": 100,
		"apps": [
			{"workload": "calib3d", "box": ["cpu"]},
			{"workload": "magic", "count": 2, "saturate": true}
		]
	}`)
	if s.Platform != "am57" || s.Seed != 7 || len(s.Apps) != 2 {
		t.Fatalf("spec = %+v", s)
	}
}

func TestParseRejections(t *testing.T) {
	bad := map[string]string{
		"platform": `{"platform":"pc","duration_ms":1,"apps":[{"workload":"magic"}]}`,
		"duration": `{"platform":"am57","duration_ms":0,"apps":[{"workload":"magic"}]}`,
		"no apps":  `{"platform":"am57","duration_ms":1,"apps":[]}`,
		"workload": `{"platform":"am57","duration_ms":1,"apps":[{"workload":"doom"}]}`,
		"scope":    `{"platform":"am57","duration_ms":1,"apps":[{"workload":"magic","box":["npu"]}]}`,
		"count":    `{"platform":"am57","duration_ms":1,"apps":[{"workload":"magic","count":-1}]}`,
		"field":    `{"platform":"am57","duration_ms":1,"apps":[{"workload":"magic"}],"speed":9}`,
		"not json": `platform: am57`,
		"no nic":   `{"platform":"am57","seed":1,"duration_ms":50,"apps":[{"workload":"scp"}]}`,
		"no gpu":   `{"platform":"beaglebone","seed":1,"duration_ms":50,"apps":[{"workload":"magic"}]}`,
	}
	for name, doc := range bad {
		if _, err := Parse(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: should be rejected", name)
		}
	}
}

func TestRunEndToEnd(t *testing.T) {
	s := parse(t, `{
		"platform": "am57", "seed": 3, "duration_ms": 800,
		"apps": [
			{"workload": "calib3d", "box": ["cpu"]},
			{"workload": "bodytrack"},
			{"workload": "magic", "count": 2}
		]
	}`)
	rep, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Apps) != 4 {
		t.Fatalf("apps = %d", len(rep.Apps))
	}
	if rep.SimTimeS != 0.8 {
		t.Fatalf("sim time = %v", rep.SimTimeS)
	}
	boxed := rep.Apps[0]
	if boxed.BoxMJ["cpu"] <= 0 {
		t.Fatalf("boxed observation = %v", boxed.BoxMJ)
	}
	if boxed.Counters["kb"] == 0 {
		t.Fatal("boxed app made no progress")
	}
	for _, a := range rep.Apps[1:] {
		if a.BoxMJ != nil {
			t.Fatalf("%s should not be boxed", a.Name)
		}
		if a.CPUTimeS <= 0 {
			t.Fatalf("%s used no CPU", a.Name)
		}
	}
	for _, rail := range []string{"cpu", "gpu", "dsp"} {
		if rep.RailsMJ[rail] <= 0 {
			t.Fatalf("rail %s energy missing", rail)
		}
	}
}

func TestRunBoxScopeMismatch(t *testing.T) {
	// WiFi scope on a platform without a NIC surfaces as a run error.
	s := parse(t, `{
		"platform": "am57", "seed": 1, "duration_ms": 10,
		"apps": [{"workload": "calib3d", "box": ["wifi"]}]
	}`)
	if _, err := Run(s); err == nil {
		t.Fatal("expected scope error on am57")
	}
}

func TestRunDeterministic(t *testing.T) {
	doc := `{
		"platform": "beaglebone", "seed": 9, "duration_ms": 500,
		"apps": [{"workload": "scp"}, {"workload": "browserw", "box": ["wifi"]}]
	}`
	r1, err := Run(parse(t, doc))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(parse(t, doc))
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := json.Marshal(r1)
	j2, _ := json.Marshal(r2)
	if string(j1) != string(j2) {
		t.Fatal("same scenario diverged")
	}
}

func TestRenderAndJSON(t *testing.T) {
	s := parse(t, `{
		"platform": "mobile", "seed": 2, "duration_ms": 300,
		"apps": [{"workload": "cube", "box": ["gpu"]}]
	}`)
	rep, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	rep.Render(&b)
	out := b.String()
	for _, want := range []string{"platform=mobile", "cube", "gpu=", "rail energies"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	if _, err := json.Marshal(rep); err != nil {
		t.Fatal(err)
	}
}

// TestTypedValidationErrors: rejections carry the offending field's JSON
// path and its position in the apps array, so tools can point at the
// exact entry.
func TestTypedValidationErrors(t *testing.T) {
	cases := []struct {
		doc   string
		field string
		index int
	}{
		{`{"platform":"pc","duration_ms":1,"apps":[{"workload":"magic"}]}`,
			"platform", -1},
		{`{"platform":"am57","duration_ms":1,"apps":[{"workload":"magic"},{"workload":"doom"}]}`,
			"apps[1].workload", 1},
		{`{"platform":"am57","duration_ms":1,"apps":[
			{"name":"a","workload":"magic"},{"workload":"magic"},{"name":"a","workload":"magic"}]}`,
			"apps[2].name", 2},
		{`{"platform":"am57","duration_ms":1,"apps":[{"workload":"magic","box":["npu"]}]}`,
			"apps[0].box", 0},
		{`{"platform":"am57","seed":1,"duration_ms":50,"apps":[{"workload":"scp"}]}`,
			"apps[0].workload", 0},
		{`{"platform":"beaglebone","seed":1,"duration_ms":50,"apps":[{"workload":"magic"}]}`,
			"apps[0].workload", 0},
	}
	for _, tc := range cases {
		_, err := Parse(strings.NewReader(tc.doc))
		var ve *ValidationError
		if !errors.As(err, &ve) {
			t.Errorf("%s: error %v, want *ValidationError", tc.field, err)
			continue
		}
		if ve.Field != tc.field || ve.Index != tc.index {
			t.Errorf("got field %q index %d, want %q %d (%v)", ve.Field, ve.Index, tc.field, tc.index, ve)
		}
		if ve.Error() == "" || !strings.HasPrefix(ve.Error(), "scenario: ") {
			t.Errorf("unhelpful message %q", ve.Error())
		}
	}
}

// TestNamedInstances: a custom name carries into the report; Count > 1
// fans out with -N suffixes.
func TestNamedInstances(t *testing.T) {
	s := parse(t, `{
		"platform": "am57", "seed": 3, "duration_ms": 50,
		"apps": [
			{"name": "tracker", "workload": "bodytrack"},
			{"name": "worker", "workload": "magic", "count": 2}
		]
	}`)
	rep, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, a := range rep.Apps {
		// The kernel suffixes every app with its #ID; the declared name is
		// the part before it.
		names = append(names, strings.SplitN(a.Name, "#", 2)[0])
	}
	want := []string{"tracker", "worker-0", "worker-1"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("names = %v, want %v", names, want)
	}
}
