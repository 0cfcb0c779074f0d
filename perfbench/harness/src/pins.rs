//! Outputs pinned at the commit that added the benchmark, as
//! `(byte length, FNV-1a-64)`. A faster program must print the same
//! bytes and simulate the same statistics.

/// `reproduce --jobs 2` (every experiment at Table IV sizes).
pub const PAPER_STDOUT: (usize, u64) = (21281, 0x9b8c_c9c5_8416_6f4b);
/// `reproduce --exp tab1 --jobs 2`.
pub const TAB1_STDOUT: (usize, u64) = (1077, 0x9b84_cfcb_755a_4fbc);
/// `reproduce --check --scale quick --jobs 2`.
pub const CHECK_QUICK_STDOUT: (usize, u64) = (47798, 0xfbf0_6575_abca_058c);

/// Simulated statistics of the `paper` experiments, from the
/// program's `timing_*` counters.
pub const PAPER_LAUNCHES: u64 = 3_138_163;
pub const PAPER_TRANSFERS: u64 = 5_915;
pub const PAPER_TRANSFER_BYTES: u64 = 265_222_355_740;
