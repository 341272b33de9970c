//! One source, one text: compiling a workload program again in the same
//! process yields the same instructions. Each compile builds fresh hash
//! maps with their own iteration order, so a code generator that walks a
//! map while assigning registers fails here.

use ccsvm_workloads as wl;

#[test]
fn every_workload_compiles_to_one_text() {
    let sources = [
        wl::matmul::xthreads_source(&wl::matmul::MatmulParams::new(8, 1)),
        wl::vecadd::xthreads_source(&wl::vecadd::VecaddParams { n: 64, seed: 1 }),
        wl::spmm::xthreads_source(&wl::spmm::SpmmParams::one_percent(16, 1)),
        wl::barnes_hut::xthreads_source(&wl::barnes_hut::BhParams::new(16, 1)),
        wl::apsp::xthreads_source(&wl::apsp::ApspParams::new(8, 1)),
    ];
    for src in &sources {
        let first = wl::build(src).text;
        for i in 1..8 {
            assert!(wl::build(src).text == first, "compile {i} differs:\n{src}");
        }
    }
}
