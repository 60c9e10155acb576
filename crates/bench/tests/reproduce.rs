//! Determinism pin for the reproductions: the cheapest figures at the
//! smallest scale, built twice at once, must render the same bytes, and
//! those bytes are pinned by digest. Every figure is priced from counted
//! work, so a change that moves a count, a layout decision, a price or the
//! rendering shows here; a wall-clock price would not repeat.

use tasm_bench::{render, FIGURES};

/// Every duration at its floor of one second.
const SCALE: f64 = 0.01;

/// `table1` checks the corpus; `fig9` ingests, tiles, queries and prices.
const PINNED: [&str; 2] = ["table1", "fig9"];

/// The document body of the pinned figures.
fn pinned() -> String {
    let figures = FIGURES.iter().filter(|(name, _)| PINNED.contains(name));
    render(&figures.map(|(_, build)| build(SCALE)).collect::<Vec<_>>())
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn the_cheapest_figures_render_the_same_bytes_twice() {
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(pinned);
        let b = s.spawn(pinned);
        (
            a.join().expect("first pass"),
            b.join().expect("second pass"),
        )
    });
    assert_eq!(a, b, "two passes differ");
    assert!(a.contains("## `fig9`: SOT duration"), "{a}");
    assert_eq!(
        fnv1a(a.as_bytes()),
        10351739730414816745,
        "pinned bytes moved:\n{a}"
    );
}
