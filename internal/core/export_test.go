package core

// SetBulkFlushHookForTesting installs (or, with nil, removes) the global
// bulk-load flush hook. Not safe against concurrent loads.
func SetBulkFlushHookForTesting(fn func(pagesFlushed uint64) error) { bulkFlushHook = fn }
