// Package fair implements Dominant Resource Fairness (DRF) accounting
// (Ghodsi et al., NSDI'11), used both by the DRF baseline scheduler and by
// CODA's intra-array scheduling (§V-C: "DRF scheduling is used to schedule
// the CPU jobs based on the usage of CPU" and "GPU jobs ... according to
// the usage of GPU").
package fair

import (
	"fmt"
	"math"

	"github.com/coda-repro/coda/internal/job"
)

// Resources is a two-dimensional resource vector (CPU cores, GPUs).
type Resources struct {
	// CPU is the core count.
	CPU float64
	// GPU is the GPU count.
	GPU float64
}

// Add returns r + o.
func (r Resources) Add(o Resources) Resources {
	return Resources{CPU: r.CPU + o.CPU, GPU: r.GPU + o.GPU}
}

// Sub returns r - o.
func (r Resources) Sub(o Resources) Resources {
	return Resources{CPU: r.CPU - o.CPU, GPU: r.GPU - o.GPU}
}

// IsZero reports whether both dimensions are exactly zero. Exact equality
// is intentional: it only gates dropping a tenant's ledger entry, and a
// residual epsilon keeps the entry alive harmlessly (CheckInvariants
// compares with a tolerance).
//
//coda:ordered-ok exact zero test by design; a float residue only delays map cleanup
func (r Resources) IsZero() bool { return r.CPU == 0 && r.GPU == 0 }

// Dominant selects which resource dimension dominates a tenant's share.
type Dominant int

const (
	// DominantCPU always uses the CPU share (CODA's CPU job array).
	DominantCPU Dominant = iota + 1
	// DominantGPU always uses the GPU share (the paper's DRF baseline and
	// CODA's GPU job arrays consider GPU the dominant resource, §VI-A).
	DominantGPU
)

// String implements fmt.Stringer.
func (d Dominant) String() string {
	switch d {
	case DominantCPU:
		return "cpu"
	case DominantGPU:
		return "gpu"
	default:
		return fmt.Sprintf("dominant(%d)", int(d))
	}
}

// Accountant tracks per-tenant resource usage and answers dominant-share
// queries. The zero value is unusable; build with NewAccountant.
type Accountant struct {
	total  Resources
	mode   Dominant
	used   map[job.TenantID]Resources
	perJob map[job.ID]charge
}

// charge remembers what a job was billed so Refund is exact.
type charge struct {
	tenant job.TenantID
	res    Resources
}

// NewAccountant builds an accountant for a cluster with the given totals.
func NewAccountant(total Resources, mode Dominant) (*Accountant, error) {
	if total.CPU <= 0 {
		return nil, fmt.Errorf("fair: total CPU must be positive, got %g", total.CPU)
	}
	if total.GPU < 0 {
		return nil, fmt.Errorf("fair: total GPU must be non-negative, got %g", total.GPU)
	}
	switch mode {
	case DominantCPU, DominantGPU:
	default:
		return nil, fmt.Errorf("fair: unknown dominant mode %d", int(mode))
	}
	//coda:ordered-ok construction-time validation of an int-derived total; exact zero intended
	if mode == DominantGPU && total.GPU == 0 {
		return nil, fmt.Errorf("fair: dominant GPU mode needs GPUs in the total")
	}
	return &Accountant{
		total:  total,
		mode:   mode,
		used:   make(map[job.TenantID]Resources),
		perJob: make(map[job.ID]charge),
	}, nil
}

// Charge bills res used by job id to tenant t.
func (a *Accountant) Charge(id job.ID, t job.TenantID, res Resources) error {
	if _, ok := a.perJob[id]; ok {
		return fmt.Errorf("fair: job %d already charged", id)
	}
	if res.CPU < 0 || res.GPU < 0 {
		return fmt.Errorf("fair: negative charge %+v for job %d", res, id)
	}
	a.used[t] = a.used[t].Add(res)
	a.perJob[id] = charge{tenant: t, res: res}
	return nil
}

// Refund releases whatever job id was charged.
func (a *Accountant) Refund(id job.ID) error {
	c, ok := a.perJob[id]
	if !ok {
		return fmt.Errorf("fair: job %d was never charged", id)
	}
	a.used[c.tenant] = a.used[c.tenant].Sub(c.res)
	if a.used[c.tenant].IsZero() {
		delete(a.used, c.tenant)
	}
	delete(a.perJob, id)
	return nil
}

// Adjust re-bills job id with newRes (used when CODA resizes a running
// job's cores).
func (a *Accountant) Adjust(id job.ID, newRes Resources) error {
	c, ok := a.perJob[id]
	if !ok {
		return fmt.Errorf("fair: job %d was never charged", id)
	}
	if newRes.CPU < 0 || newRes.GPU < 0 {
		return fmt.Errorf("fair: negative adjust %+v for job %d", newRes, id)
	}
	a.used[c.tenant] = a.used[c.tenant].Sub(c.res).Add(newRes)
	c.res = newRes
	a.perJob[id] = c
	return nil
}

// DominantShare returns tenant t's dominant share in [0, 1]: its usage of
// the mode's resource over the cluster total of it. The constructor
// guarantees that total is positive.
func (a *Accountant) DominantShare(t job.TenantID) float64 {
	u := a.used[t]
	if a.mode == DominantGPU {
		return u.GPU / a.total.GPU
	}
	return u.CPU / a.total.CPU
}

// PoorestTenant returns the tenant with the lowest dominant share among the
// candidates, ties broken by the lower tenant ID; false if candidates is
// empty. Over distinct tenants (share, ID) is a strict total order, so this
// allocation-free min-scan picks the head of classic DRF's progressive
// filling order without ranking the rest.
func (a *Accountant) PoorestTenant(candidates []job.TenantID) (job.TenantID, bool) {
	if len(candidates) == 0 {
		return 0, false
	}
	best, bestShare := candidates[0], a.DominantShare(candidates[0])
	for _, t := range candidates[1:] {
		share := a.DominantShare(t)
		//coda:ordered-ok comparator tie-break; both shares come from the same deterministic computation
		if share < bestShare || (share == bestShare && t < best) {
			best, bestShare = t, share
		}
	}
	return best, true
}

// CheckInvariants verifies the per-job ledger sums to the per-tenant usage.
func (a *Accountant) CheckInvariants() error {
	sums := make(map[job.TenantID]Resources, len(a.used))
	//coda:ordered-ok per-tenant sums are compared with a 1e-9 tolerance below
	for _, c := range a.perJob {
		sums[c.tenant] = sums[c.tenant].Add(c.res)
	}
	//coda:ordered-ok error reporting on already-broken invariants; any witness will do
	for t, want := range sums {
		got := a.used[t]
		if math.Abs(got.CPU-want.CPU) > 1e-9 || math.Abs(got.GPU-want.GPU) > 1e-9 {
			return fmt.Errorf("fair: tenant %d usage %+v, ledger sums to %+v", t, got, want)
		}
	}
	//coda:ordered-ok error reporting on already-broken invariants; any witness will do
	for t, got := range a.used {
		if _, ok := sums[t]; !ok && !got.IsZero() {
			return fmt.Errorf("fair: tenant %d has usage %+v but no charged jobs", t, got)
		}
	}
	return nil
}
