package retrieval

// Posting and StartMSColumn expose the engine's derived index to the
// external test package, whose layout tests need the shard and live
// fixtures this package cannot import.

func (e *Engine) Posting(vi, ci int) []int32 { return e.shared.posting(vi, ci) }

func (e *Engine) StartMSColumn() []int32 { return e.shared.startMS }
