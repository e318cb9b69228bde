package fair

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"github.com/coda-repro/coda/internal/job"
)

// Rank orders the given tenants by ascending dominant share (classic DRF
// progressive filling order); ties break by tenant ID for determinism. It
// is the reference PoorestTenant's min-scan must agree with: the head of
// this ranking.
func (a *Accountant) Rank(tenants []job.TenantID) []job.TenantID {
	out := append([]job.TenantID(nil), tenants...)
	sort.SliceStable(out, func(i, j int) bool {
		si, sj := a.DominantShare(out[i]), a.DominantShare(out[j])
		if si != sj {
			return si < sj
		}
		return out[i] < out[j]
	})
	return out
}

func newTestAccountant(t *testing.T, mode Dominant) *Accountant {
	t.Helper()
	a, err := NewAccountant(Resources{CPU: 100, GPU: 10}, mode)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestResourcesArithmetic(t *testing.T) {
	a := Resources{CPU: 3, GPU: 1}
	b := Resources{CPU: 1, GPU: 2}
	if got := a.Add(b); got != (Resources{CPU: 4, GPU: 3}) {
		t.Errorf("Add = %+v", got)
	}
	if got := a.Sub(b); got != (Resources{CPU: 2, GPU: -1}) {
		t.Errorf("Sub = %+v", got)
	}
	if !(Resources{}).IsZero() {
		t.Error("zero value should be zero")
	}
	if (Resources{CPU: 1}).IsZero() {
		t.Error("non-zero CPU should not be zero")
	}
}

func TestDominantString(t *testing.T) {
	tests := map[Dominant]string{
		DominantCPU: "cpu",
		DominantGPU: "gpu",
		Dominant(9): "dominant(9)",
	}
	for d, want := range tests {
		if got := d.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestNewAccountantValidation(t *testing.T) {
	tests := []struct {
		name    string
		total   Resources
		mode    Dominant
		wantErr bool
	}{
		{"ok gpu", Resources{CPU: 10, GPU: 2}, DominantGPU, false},
		{"ok cpu-only cluster", Resources{CPU: 10}, DominantCPU, false},
		{"zero cpu", Resources{GPU: 2}, DominantGPU, true},
		{"negative gpu", Resources{CPU: 10, GPU: -1}, DominantCPU, true},
		{"bad mode", Resources{CPU: 10}, Dominant(0), true},
		{"gpu mode without gpus", Resources{CPU: 10}, DominantGPU, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewAccountant(tt.total, tt.mode)
			if (err != nil) != tt.wantErr {
				t.Errorf("error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestChargeRefund(t *testing.T) {
	a := newTestAccountant(t, DominantGPU)
	if err := a.Charge(1, 7, Resources{CPU: 20, GPU: 1}); err != nil {
		t.Fatal(err)
	}
	if err := a.Charge(1, 7, Resources{CPU: 1}); err == nil {
		t.Error("double charge should fail")
	}
	if err := a.Charge(2, 7, Resources{CPU: -1}); err == nil {
		t.Error("negative charge should fail")
	}
	if got := a.used[7]; got != (Resources{CPU: 20, GPU: 1}) {
		t.Errorf("Usage = %+v", got)
	}
	if err := a.Refund(1); err != nil {
		t.Fatal(err)
	}
	if err := a.Refund(1); err == nil {
		t.Error("double refund should fail")
	}
	if got := a.used[7]; !got.IsZero() {
		t.Errorf("Usage after refund = %+v", got)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestDominantShareModes(t *testing.T) {
	// Tenant uses 20/100 CPU and 1/10 GPU: cpu share 0.2, gpu share 0.1.
	charge := Resources{CPU: 20, GPU: 1}

	tests := []struct {
		mode Dominant
		want float64
	}{
		{DominantCPU, 0.2},
		{DominantGPU, 0.1},
	}
	for _, tt := range tests {
		a := newTestAccountant(t, tt.mode)
		if err := a.Charge(1, 3, charge); err != nil {
			t.Fatal(err)
		}
		if got := a.DominantShare(3); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("mode %v: DominantShare = %g, want %g", tt.mode, got, tt.want)
		}
	}
}

func TestRankDeterministicTies(t *testing.T) {
	a := newTestAccountant(t, DominantCPU)
	ranked := a.Rank([]job.TenantID{5, 3, 9, 1})
	want := []job.TenantID{1, 3, 5, 9}
	for i := range want {
		if ranked[i] != want[i] {
			t.Fatalf("Rank = %v, want %v", ranked, want)
		}
	}
}

func TestRankDoesNotMutateInput(t *testing.T) {
	a := newTestAccountant(t, DominantCPU)
	if err := a.Charge(1, 9, Resources{CPU: 50}); err != nil {
		t.Fatal(err)
	}
	in := []job.TenantID{9, 1}
	_ = a.Rank(in)
	if in[0] != 9 || in[1] != 1 {
		t.Errorf("Rank mutated input: %v", in)
	}
}

// TestPoorestTenantMatchesRank checks the min-scan against the full
// ranking over random usages and candidate orders, with exact share ties
// forced in: equal charges, the same dominant charge next to a different
// charge of the other resource, and tenants with no usage at all.
func TestPoorestTenantMatchesRank(t *testing.T) {
	modes := []Dominant{DominantCPU, DominantGPU}
	ties := 0
	for seed := int64(0); seed < 2000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, err := NewAccountant(Resources{CPU: float64(1 + rng.Intn(500)), GPU: float64(1 + rng.Intn(64))},
			modes[rng.Intn(len(modes))])
		if err != nil {
			t.Fatal(err)
		}
		n := 1 + rng.Intn(12)
		perm := rng.Perm(40)
		cands := make([]job.TenantID, n)
		id := job.ID(1)
		var prev Resources
		for i := range cands {
			tenant := job.TenantID(perm[i])
			cands[i] = tenant
			res := Resources{CPU: float64(rng.Intn(60)), GPU: float64(rng.Intn(8))}
			switch rng.Intn(4) {
			case 0: // same charge as the previous tenant
				res = prev
			case 1: // the previous charge with the other resource changed
				if a.mode == DominantCPU {
					res = Resources{CPU: prev.CPU, GPU: prev.GPU + 1}
				} else {
					res = Resources{CPU: prev.CPU + 1, GPU: prev.GPU}
				}
			case 2: // no usage
				continue
			}
			prev = res
			if err := a.Charge(id, tenant, res); err != nil {
				t.Fatal(err)
			}
			id++
		}
		want := a.Rank(cands)[0]
		got, ok := a.PoorestTenant(cands)
		if !ok || got != want {
			t.Fatalf("seed %d: PoorestTenant(%v) = %d, %v; Rank head %d", seed, cands, got, ok, want)
		}
		for _, c := range cands {
			if c != want && a.DominantShare(c) == a.DominantShare(want) {
				ties++
				break
			}
		}
	}
	if ties < 100 {
		t.Errorf("only %d of 2000 cases had a tie at the head; the ID tie-break is not exercised", ties)
	}
}

func TestPoorestTenantEmpty(t *testing.T) {
	a := newTestAccountant(t, DominantGPU)
	if _, ok := a.PoorestTenant(nil); ok {
		t.Error("PoorestTenant(nil) should report !ok")
	}
}

func TestAdjust(t *testing.T) {
	a := newTestAccountant(t, DominantGPU)
	if err := a.Adjust(1, Resources{CPU: 5}); err == nil {
		t.Error("Adjust before charge should fail")
	}
	if err := a.Charge(1, 4, Resources{CPU: 10, GPU: 2}); err != nil {
		t.Fatal(err)
	}
	if err := a.Adjust(1, Resources{CPU: 4, GPU: 2}); err != nil {
		t.Fatal(err)
	}
	if got := a.used[4]; got != (Resources{CPU: 4, GPU: 2}) {
		t.Errorf("Usage after adjust = %+v", got)
	}
	if err := a.Adjust(1, Resources{CPU: -1}); err == nil {
		t.Error("negative adjust should fail")
	}
	if err := a.Refund(1); err != nil {
		t.Fatal(err)
	}
	if got := a.used[4]; !got.IsZero() {
		t.Errorf("Usage after refund = %+v (adjust must update ledger)", got)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestDRFProgressiveFilling runs progressive filling with GPU as the
// dominant resource, as the DRF baseline and CODA's GPU arrays do, on the
// demands of the canonical DRF example from the paper's citation [4]:
// tenants with asymmetric demands converge so that GPU shares equalize.
func TestDRFProgressiveFilling(t *testing.T) {
	a, err := NewAccountant(Resources{CPU: 90, GPU: 18}, DominantGPU)
	if err != nil {
		t.Fatal(err)
	}
	// Tenant A wants {1 CPU, 0.4 GPU} per task; tenant B wants {3 CPU, 0.1 GPU}.
	demA := Resources{CPU: 1, GPU: 0.4}
	demB := Resources{CPU: 3, GPU: 0.1}
	id := job.ID(1)
	free := Resources{CPU: 90, GPU: 18}
	for {
		tenant, _ := a.PoorestTenant([]job.TenantID{1, 2})
		dem := demA
		if tenant == 2 {
			dem = demB
		}
		if free.CPU < dem.CPU || free.GPU < dem.GPU {
			break
		}
		if err := a.Charge(id, tenant, dem); err != nil {
			t.Fatal(err)
		}
		free = free.Sub(dem)
		id++
	}
	sa, sb := a.DominantShare(1), a.DominantShare(2)
	if math.Abs(sa-sb) > 0.06 {
		t.Errorf("dominant shares diverged: A=%g B=%g", sa, sb)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestChargeRefundProperty: any sequence of charges followed by refunds of
// the same jobs leaves every tenant at zero usage.
func TestChargeRefundProperty(t *testing.T) {
	f := func(cpus []uint8) bool {
		a, err := NewAccountant(Resources{CPU: 1000, GPU: 100}, DominantGPU)
		if err != nil {
			return false
		}
		for i, c := range cpus {
			tenant := job.TenantID(i % 3)
			if err := a.Charge(job.ID(i+1), tenant, Resources{CPU: float64(c), GPU: float64(c % 4)}); err != nil {
				return false
			}
		}
		if err := a.CheckInvariants(); err != nil {
			return false
		}
		for i := range cpus {
			if err := a.Refund(job.ID(i + 1)); err != nil {
				return false
			}
		}
		for tenant := job.TenantID(0); tenant < 3; tenant++ {
			if !a.used[tenant].IsZero() {
				return false
			}
		}
		return a.CheckInvariants() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
