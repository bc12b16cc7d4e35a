//! Figure 3 worked example: window-based entropy of 8 TBs whose BVRs are
//! 0,0,1,1,0,0,1,1 under window sizes 2 and 4, plus footnote 1's window.
//!
//! Thin consumer: the rendering lives in [`valley_bench::figures`] and is
//! pinned byte-for-byte by the golden tests.

fn main() {
    print!("{}", valley_bench::figures::fig03_text());
}
