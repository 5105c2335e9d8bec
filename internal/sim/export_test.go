package sim

// RunWithQueueWindow runs cfg like Run, on an engine whose calendar ring
// span is capped at window: 0 is the production sizing, a negative window
// sends every event through the reference heap, and a small positive
// window forces constant overflow migration (see eventQueue).
func RunWithQueueWindow(cfg Config, window int64) *Result {
	e := &Engine{queueWindow: window}
	e.Reset(cfg)
	return e.Run()
}
