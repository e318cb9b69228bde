package sched

import (
	"encoding/json"
	"slices"
	"testing"

	"github.com/coda-repro/coda/internal/job"
)

// queuedIDs decodes a FIFO checkpoint's queue, in its serialized order.
func queuedIDs(t *testing.T, f *FIFO) []job.ID {
	t.Helper()
	data, err := f.CheckpointState()
	if err != nil {
		t.Fatal(err)
	}
	var st fifoState
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	ids := make([]job.ID, len(st.Jobs))
	for i, j := range st.Jobs {
		ids[i] = j.ID
	}
	return ids
}

func checkFIFO(t *testing.T, f *FIFO) {
	t.Helper()
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// emptiedShapeFIFO queues a 4-core and a 2-core CPU job behind two jobs that
// fill the cluster, then frees a node so both start: their shapes are empty
// and detached. Node 0 keeps 2 free cores.
func emptiedShapeFIFO(t *testing.T) (*fakeEnv, *FIFO) {
	t.Helper()
	env := newFakeEnv(smallCluster())
	f := NewFIFO()
	f.Bind(env)
	f.Submit(cpuJob(1, 1, 8))
	f.Submit(cpuJob(2, 1, 8))
	f.Submit(cpuJob(3, 1, 4))
	f.Submit(cpuJob(4, 1, 2))
	if f.size != 2 {
		t.Fatalf("queue length = %d, want 2", f.size)
	}
	env.release(t, 1)
	f.OnJobCompleted(&job.Job{ID: 1})
	if f.size != 0 || len(f.shapeList) != 0 {
		t.Fatalf("queue length = %d with %d listed shapes, want both 0", f.size, len(f.shapeList))
	}
	checkFIFO(t, f)
	return env, f
}

// TestFIFOReusesEmptiedShape refills a detached shape and checks that the
// queue reuses it, keeps arrival order across shapes, and carries that
// order through a checkpoint round trip.
func TestFIFOReusesEmptiedShape(t *testing.T) {
	_, f := emptiedShapeFIFO(t)
	four := job.Request{CPUCores: 4, Nodes: 1}
	sq := f.shapes[four]
	if sq == nil || sq.listIdx != -1 || sq.length() != 0 {
		t.Fatalf("emptied shape = %+v, want a detached, empty queue", sq)
	}

	f.Submit(cpuJob(5, 1, 4)) // 2 cores free: waits in the emptied shape
	f.Submit(cpuJob(6, 1, 8))
	f.Submit(cpuJob(7, 1, 4))
	checkFIFO(t, f)
	if f.shapes[four] != sq || sq.length() != 2 {
		t.Fatalf("refilled shape %p holds %d jobs; want the emptied queue %p reused with 2", f.shapes[four], f.shapes[four].length(), sq)
	}
	want := []job.ID{5, 6, 7}
	if got := queuedIDs(t, f); !slices.Equal(got, want) {
		t.Fatalf("queue = %v, want %v", got, want)
	}

	data, err := f.CheckpointState()
	if err != nil {
		t.Fatal(err)
	}
	restored := NewFIFO()
	if err := restored.RestoreCheckpoint(data); err != nil {
		t.Fatal(err)
	}
	checkFIFO(t, restored)
	if got := queuedIDs(t, restored); !slices.Equal(got, want) {
		t.Fatalf("restored queue = %v, want %v", got, want)
	}
}

// TestFIFOCancelDetachedShapeIsNoOp cancels a job whose shape has been
// emptied and detached: nothing is queued, so nothing changes.
func TestFIFOCancelDetachedShapeIsNoOp(t *testing.T) {
	env, f := emptiedShapeFIFO(t)
	started := len(env.started)
	f.OnJobCancelled(cpuJob(3, 1, 4))
	checkFIFO(t, f)
	if f.size != 0 || len(env.started) != started {
		t.Fatalf("queue length = %d, %d started; want 0 and %d", f.size, len(env.started), started)
	}
	if sq := f.shapes[job.Request{CPUCores: 4, Nodes: 1}]; sq.listIdx != -1 || sq.length() != 0 {
		t.Fatalf("cancelled job's shape = %+v, want detached and empty", sq)
	}
}

// TestFIFOCheckInvariantsCatchesCorruption corrupts the shape queues one
// way at a time and requires CheckInvariants to reject each.
func TestFIFOCheckInvariantsCatchesCorruption(t *testing.T) {
	four := job.Request{CPUCores: 4, Nodes: 1}
	for _, tc := range []struct {
		name    string
		corrupt func(f *FIFO)
	}{
		{"detached shape holds a job", func(f *FIFO) {
			sq := f.shapes[four]
			sq.entries = append(sq.entries, fifoEntry{seq: 99, j: cpuJob(9, 1, 4)})
		}},
		{"size off by one", func(f *FIFO) { f.size++ }},
		{"listed shape is empty", func(f *FIFO) {
			sq := f.shapes[four]
			sq.listIdx = len(f.shapeList)
			f.shapeList = append(f.shapeList, sq)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, f := emptiedShapeFIFO(t)
			tc.corrupt(f)
			if err := f.CheckInvariants(); err == nil {
				t.Error("CheckInvariants missed the corruption")
			}
		})
	}
}
