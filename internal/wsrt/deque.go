package wsrt

import "sync"

// mutexDeque is the per-worker task store: the owner pushes and pops at
// the bottom (LIFO, preserving the serial order locally), thieves steal
// from the top (FIFO, taking the oldest — and typically largest — work
// first), the Blumofe–Leiserson discipline. One mutex guards it.
type mutexDeque struct {
	mu    sync.Mutex
	tasks []*task
}

func (d *mutexDeque) pushBottom(t *task) {
	d.mu.Lock()
	d.tasks = append(d.tasks, t)
	d.mu.Unlock()
}

func (d *mutexDeque) popBottom() *task {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.tasks) == 0 {
		return nil
	}
	t := d.tasks[len(d.tasks)-1]
	d.tasks = d.tasks[:len(d.tasks)-1]
	return t
}

func (d *mutexDeque) stealTop() *task {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.tasks) == 0 {
		return nil
	}
	t := d.tasks[0]
	d.tasks = d.tasks[1:]
	return t
}
