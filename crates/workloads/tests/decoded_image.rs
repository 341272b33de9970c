//! The decoded image against `decode_run`, the per-entry decoder it
//! replaced a cache of: for every PC of every workload program — mid-run
//! entry PCs included — the image's slice is the run decoded from that PC.

use ccsvm_isa::{decode_run, DecodedImage};
use ccsvm_workloads as wl;

#[test]
fn image_equals_decode_run_at_every_pc_of_every_workload() {
    let sources = [
        wl::matmul::xthreads_source(&wl::matmul::MatmulParams::new(8, 1)),
        wl::vecadd::xthreads_source(&wl::vecadd::VecaddParams { n: 64, seed: 1 }),
        wl::spmm::xthreads_source(&wl::spmm::SpmmParams::one_percent(16, 1)),
        wl::barnes_hut::xthreads_source(&wl::barnes_hut::BhParams::new(16, 1)),
        wl::apsp::xthreads_source(&wl::apsp::ApspParams::new(8, 1)),
    ];
    for src in &sources {
        let text = wl::build(src).text;
        let image = DecodedImage::build(&text);
        let mut runs = 0;
        let mut mid_run_entries = 0;
        for pc in 0..=text.len() {
            let ops = decode_run(&text, pc);
            assert_eq!(image.run_at(pc), &ops[..], "pc {pc}");
            let starts_run = pc == 0 || decode_run(&text, pc - 1).is_empty();
            runs += u64::from(!ops.is_empty() && starts_run);
            mid_run_entries += u64::from(!ops.is_empty() && !starts_run);
        }
        assert!(mid_run_entries > 0, "no run longer than one micro-op");
        assert_eq!(image.build_stats().misses, runs, "misses = maximal runs");
    }
}
