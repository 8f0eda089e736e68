package sim

// GlobalFlushEvery exposes the counter batching interval to the
// external sim_test package.
const GlobalFlushEvery = globalFlushEvery
