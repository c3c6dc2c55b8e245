package dist

import (
	"context"
	"sync"
	"testing"

	"critics/internal/artifact"
	"critics/internal/binimg"
	"critics/internal/scan"
	"critics/internal/trace"
	"critics/internal/workload"
)

// TestWorkerIndexesImageOnce: concurrent scan tasks against one image build
// its index once, and each task still scores its own chunks.
func TestWorkerIndexesImageOnce(t *testing.T) {
	app := workload.MobileApps()[0]
	p := workload.Generate(app.Params)
	img, err := binimg.Assemble(p)
	if err != nil {
		t.Fatal(err)
	}
	const tasks = 8
	dyns := trace.NewGenerator(p, app.Params.Seed).Generate(nil, tasks*1024)
	addrs := make([]uint32, len(dyns))
	for i := range dyns {
		addrs[i] = dyns[i].Addr
	}
	store, err := artifact.Open(artifact.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	imgDigest, err := store.PutBytes(img)
	if err != nil {
		t.Fatal(err)
	}
	trcDigest, err := store.PutBytes(scan.TraceBytes(addrs, 1024))
	if err != nil {
		t.Fatal(err)
	}

	w := NewWorker(WorkerConfig{Artifacts: store, Capacity: tasks})
	var wg sync.WaitGroup
	for i := 0; i < tasks; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := w.executeScan(context.Background(), ScanTask{
				ImageDigest: imgDigest, TraceDigest: trcDigest, Chunks: []int{i},
			})
			if err != nil {
				t.Errorf("task %d: %v", i, err)
				return
			}
			if len(res) != 1 || res[0].Chunk != i || res[0].Instrs != 1024 {
				t.Errorf("task %d scored %+v, want chunk %d with 1024 instrs", i, res, i)
			}
		}()
	}
	wg.Wait()
	if st := w.indexes.Stats(); st.Misses != 1 || st.Hits != tasks-1 {
		t.Fatalf("index cache %+v after %d concurrent tasks, want 1 miss and %d hits", st, tasks, tasks-1)
	}
}
