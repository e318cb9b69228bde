package core

import (
	"testing"
	"testing/quick"

	"github.com/coda-repro/coda/internal/cluster"
	"github.com/coda-repro/coda/internal/job"
)

func mustBudget(t *testing.T, cores, reserve int) *nodeBudget {
	t.Helper()
	b, err := newNodeBudget(cores, reserve)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewNodeBudgetValidation(t *testing.T) {
	if _, err := newNodeBudget(0, 0); err == nil {
		t.Error("zero cores should fail")
	}
	if _, err := newNodeBudget(8, 9); err == nil {
		t.Error("reserve > cores should fail")
	}
	if _, err := newNodeBudget(8, -1); err == nil {
		t.Error("negative reserve should fail")
	}
}

func TestChargeGPUPrefersReserve(t *testing.T) {
	b := mustBudget(t, 10, 6)
	if !b.chargeGPU(1, 4) {
		t.Fatal("chargeGPU failed")
	}
	if got := b.reserveUsed(); got != 4 {
		t.Errorf("reserveUsed = %d, want 4", got)
	}
	if got := b.sharedUsed(); got != 0 {
		t.Errorf("sharedUsed = %d, want 0", got)
	}
	// Next GPU job spills into the shared pool (reserve has 2 left).
	if !b.chargeGPU(2, 5) {
		t.Fatal("second chargeGPU failed")
	}
	if got := b.reserveUsed(); got != 6 {
		t.Errorf("reserveUsed = %d, want 6", got)
	}
	if got := b.sharedUsed(); got != 3 {
		t.Errorf("sharedUsed = %d, want 3", got)
	}
	// Pools exhausted beyond capacity.
	if b.chargeGPU(3, 2) {
		t.Error("chargeGPU should fail: only 1 shared core left")
	}
	if err := b.checkInvariants(); err != nil {
		t.Error(err)
	}
}

func TestChargeGPUDuplicate(t *testing.T) {
	b := mustBudget(t, 10, 5)
	if !b.chargeGPU(1, 2) {
		t.Fatal("chargeGPU failed")
	}
	if b.chargeGPU(1, 2) {
		t.Error("duplicate chargeGPU should fail")
	}
}

func TestChargeCPUBorrowing(t *testing.T) {
	b := mustBudget(t, 10, 6) // 4 shared
	if !b.chargeCPU(1, 3) {
		t.Fatal("chargeCPU failed")
	}
	// 1 shared core left; 5 more borrows 4 from the reserve.
	if !b.chargeCPU(2, 5) {
		t.Fatal("chargeCPU with borrow failed")
	}
	if got := b.borrowedCores(); got != 4 {
		t.Errorf("borrowedCores = %d, want 4", got)
	}
	// 2 reserve cores left: 3 more fit neither pool and charge nothing.
	if b.chargeCPU(3, 3) {
		t.Error("chargeCPU past both pools should fail")
	}
	borrowers := b.borrowers()
	if len(borrowers) != 1 || borrowers[0] != 2 {
		t.Errorf("borrowers = %v, want [2]", borrowers)
	}
	if err := b.checkInvariants(); err != nil {
		t.Error(err)
	}
}

func TestBorrowersOrdering(t *testing.T) {
	b := mustBudget(t, 20, 15) // 5 shared
	// Job 1 borrows 2, job 2 borrows 4 (both spill past shared).
	if !b.chargeCPU(1, 5) { // 5 shared used... wait shared=5: all shared
		t.Fatal("charge 1")
	}
	if !b.chargeCPU(2, 4) { // all borrowed
		t.Fatal("charge 2")
	}
	if !b.chargeCPU(3, 2) {
		t.Fatal("charge 3")
	}
	order := b.borrowers()
	if len(order) != 2 || order[0] != 2 || order[1] != 3 {
		t.Errorf("borrowers = %v, want [2 3] (largest borrow first)", order)
	}
}

func TestRelease(t *testing.T) {
	b := mustBudget(t, 10, 5)
	if !b.chargeGPU(1, 4) || !b.chargeCPU(2, 3) {
		t.Fatal("setup failed")
	}
	b.release(1)
	b.release(2)
	if b.reserveUsed() != 0 || b.sharedUsed() != 0 {
		t.Errorf("pools not empty: reserve=%d shared=%d", b.reserveUsed(), b.sharedUsed())
	}
	b.release(99) // releasing unknown is a no-op
}

func TestResizeGPUJob(t *testing.T) {
	b := mustBudget(t, 10, 5)
	if !b.chargeGPU(1, 3) {
		t.Fatal("charge failed")
	}
	// Grow to 7: reserve has 2 free, shared covers 2 more.
	if !b.resize(1, 7) {
		t.Fatal("resize grow failed")
	}
	if b.reserveUsed() != 5 || b.sharedUsed() != 2 {
		t.Errorf("pools = reserve %d shared %d, want 5, 2", b.reserveUsed(), b.sharedUsed())
	}
	// Shrink to 4: shared cores returned first.
	if !b.resize(1, 4) {
		t.Fatal("resize shrink failed")
	}
	if b.reserveUsed() != 4 || b.sharedUsed() != 0 {
		t.Errorf("pools = reserve %d shared %d, want 4, 0", b.reserveUsed(), b.sharedUsed())
	}
	// Impossible growth.
	if b.resize(1, 11) {
		t.Error("resize beyond node should fail")
	}
	if b.resize(1, 0) {
		t.Error("resize to zero should fail")
	}
	if b.resize(42, 3) {
		t.Error("resize of unknown job should fail")
	}
	if err := b.checkInvariants(); err != nil {
		t.Error(err)
	}
}

func TestResizeCPUJobReturnsReserveFirst(t *testing.T) {
	b := mustBudget(t, 10, 6) // 4 shared
	if !b.chargeCPU(1, 7) {
		t.Fatal("charge failed") // 4 shared + 3 borrowed
	}
	if !b.resize(1, 4) {
		t.Fatal("shrink failed")
	}
	// The 3 borrowed reserve cores must be returned before shared ones.
	if got := b.borrowedCores(); got != 0 {
		t.Errorf("borrowedCores = %d, want 0", got)
	}
	if b.sharedUsed() != 4 {
		t.Errorf("sharedUsed = %d, want 4", b.sharedUsed())
	}
}

func TestResizeNoChange(t *testing.T) {
	b := mustBudget(t, 10, 5)
	if !b.chargeGPU(1, 3) {
		t.Fatal("charge failed")
	}
	if !b.resize(1, 3) {
		t.Error("no-op resize should succeed")
	}
}

// checkTotals fails when a budget's running totals differ from the sums
// over its draw maps.
func checkTotals(t *testing.T, nid int, b *nodeBudget) {
	t.Helper()
	r, s, bo := b.sums()
	if r != b.usedReserve || s != b.usedShared || bo != b.borrowed {
		t.Errorf("node %d: running totals (reserve %d, shared %d, borrowed %d), draws sum to (%d, %d, %d)",
			nid, b.usedReserve, b.usedShared, b.borrowed, r, s, bo)
	}
}

// TestBudgetConservationProperty: for any sequence of charges, resizes and
// releases, used never exceeds capacity, the invariants hold, and the
// running totals equal the sums over the draws.
func TestBudgetConservationProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		b, err := newNodeBudget(16, 8)
		if err != nil {
			return false
		}
		id := job.ID(1)
		for _, op := range ops {
			cores := int(op%6) + 1
			switch op % 4 {
			case 0:
				if b.chargeGPU(id, cores) {
					id++
				}
			case 1:
				if b.chargeCPU(id, cores) {
					id++
				}
			case 2:
				if id > 1 {
					b.release(id - 1)
					id--
				}
			case 3:
				if id > 1 { // resize one of the charged jobs 1..id-1
					b.resize(1+job.ID(int(op/4)%int(id-1)), cores+int(op%3))
				}
			}
			if b.checkInvariants() != nil {
				return false
			}
			if b.reserveUsed()+b.sharedUsed() > 16 {
				return false
			}
			if r, s, bo := b.sums(); r != b.reserveUsed() || s != b.sharedUsed() || bo != b.borrowedCores() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestRunningTotalMutationFailsInvariants: a running total that drifts
// from the draws by one core, in any of the three totals, fails
// MultiArray.CheckInvariants.
func TestRunningTotalMutationFailsInvariants(t *testing.T) {
	totals := map[string]func(b *nodeBudget) *int{
		"reserve":  func(b *nodeBudget) *int { return &b.usedReserve },
		"shared":   func(b *nodeBudget) *int { return &b.usedShared },
		"borrowed": func(b *nodeBudget) *int { return &b.borrowed },
	}
	for name, total := range totals {
		m, err := NewMultiArrayForCluster(DefaultArrayConfig(), cluster.Config{Nodes: 2, CoresPerNode: 28, GPUsPerNode: 4})
		if err != nil {
			t.Fatal(err)
		}
		b := m.budgets[1]
		if !b.chargeGPU(1, 6) || !b.chargeCPU(2, 20) {
			t.Fatal("setup charges failed")
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("%s: invariants fail before the mutation: %v", name, err)
		}
		*total(b)++
		if err := m.CheckInvariants(); err == nil {
			t.Errorf("bumping the %s total by one passed CheckInvariants", name)
		}
	}
}
