package wsrt

import (
	"sync"
	"sync/atomic"
	"testing"
)

// stressQueue hammers one deque with its ownership contract — a single
// owner pushing and popping, many concurrent thieves — and checks that
// every task is delivered exactly once and none are lost.
func stressQueue(t *testing.T, q *mutexDeque, total, thieves int) {
	t.Helper()
	delivered := make([]atomic.Int32, total)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var stolen atomic.Int64

	take := func(tk *task) {
		if tk == nil {
			return
		}
		idx := tk.owner // owner field reused as payload index
		if delivered[idx].Add(1) != 1 {
			t.Errorf("task %d delivered twice", idx)
		}
	}
	for i := 0; i < thieves; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if tk := q.stealTop(); tk != nil {
					stolen.Add(1)
					take(tk)
				}
			}
		}()
	}
	// Owner: push all tasks, popping a few along the way.
	for i := 0; i < total; i++ {
		q.pushBottom(&task{owner: i})
		if i%3 == 0 {
			take(q.popBottom())
		}
	}
	// Owner drains what the thieves have not taken.
	for {
		tk := q.popBottom()
		if tk == nil {
			// Thieves may still hold in-flight steals; wait for them.
			break
		}
		take(tk)
	}
	close(stop)
	wg.Wait()
	// Anything still in the queue after the thieves stopped.
	for {
		tk := q.popBottom()
		if tk == nil {
			break
		}
		take(tk)
	}
	for i := range delivered {
		if delivered[i].Load() != 1 {
			t.Fatalf("task %d delivered %d times", i, delivered[i].Load())
		}
	}
	t.Logf("thieves stole %d of %d", stolen.Load(), total)
}

func TestMutexDequeStress(t *testing.T) {
	stressQueue(t, &mutexDeque{}, 20000, 4)
}
