package encode

import (
	"bytes"
	"encoding/json"
	"testing"

	"phmse/internal/molecule"
)

func TestQualifyJobRoundTrip(t *testing.T) {
	cases := []struct {
		instance, id, qualified, back string
	}{
		{"s1", "job-000001", "s1.job-000001", "s1"},
		{"", "job-000001", "job-000001", ""},
		{"west-1", "job-000042", "west-1.job-000042", "west-1"},
	}
	for _, c := range cases {
		if got := QualifyJob(c.instance, c.id); got != c.qualified {
			t.Errorf("QualifyJob(%q, %q) = %q, want %q", c.instance, c.id, got, c.qualified)
		}
		if got := JobInstance(c.qualified); got != c.back {
			t.Errorf("JobInstance(%q) = %q, want %q", c.qualified, got, c.back)
		}
	}
	// Ids that merely look dotted are not instance-qualified.
	for _, id := range []string{"job-000001", ".job-000001", "weird-id", ""} {
		if got := JobInstance(id); got != "" {
			t.Errorf("JobInstance(%q) = %q, want empty", id, got)
		}
	}
}

func TestSolveRouting(t *testing.T) {
	p := molecule.Helix(4)
	var buf bytes.Buffer
	if err := WriteProblem(&buf, p); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(SolveRequest{
		Problem:   buf.Bytes(),
		WarmStart: &WarmStartRef{Job: "s2.job-000007"},
	})
	if err != nil {
		t.Fatal(err)
	}
	key, warm, err := SolveRouting(body)
	if err != nil {
		t.Fatal(err)
	}
	if key != TopologyHash(p) {
		t.Fatalf("routing key %q is not the topology hash %q", key, TopologyHash(p))
	}
	if warm == nil || warm.Job != "s2.job-000007" {
		t.Fatalf("warm ref = %+v, want s2.job-000007", warm)
	}

	if _, _, err := SolveRouting([]byte(`{"params":{}}`)); err == nil {
		t.Fatal("problem-less request produced a routing key")
	}
}

func TestKeyHashDeterministic(t *testing.T) {
	if KeyHash("a") != KeyHash("a") {
		t.Fatal("KeyHash not deterministic")
	}
	if KeyHash("a") == KeyHash("b") {
		t.Fatal("KeyHash collides on trivial inputs")
	}
	// Pinned value: KeyHash is a wire-level contract between the router's
	// placement and the migration diff; changing it silently would strand
	// every persisted posterior on the wrong shard after an upgrade.
	if got := KeyHash("job-000001"); got != 0x9e2991daf3ff471c {
		t.Fatalf("KeyHash(\"job-000001\") = %#x; the hash function changed", got)
	}
}
