//! One deliberate use-after-free, the kind of slip the join's block store
//! must never make: a block freed, then read.

#[cfg(test)]
mod tests {
    use std::alloc::{alloc, dealloc, Layout};

    #[test]
    fn reads_a_freed_block() {
        let layout = Layout::array::<u64>(4).expect("small layout");
        // SAFETY: deliberately unsound; the sanitizer must report the read
        // after the free.
        let seen = unsafe {
            let block = alloc(layout).cast::<u64>();
            block.write(7);
            dealloc(block.cast(), layout);
            block.read_volatile()
        };
        assert_eq!(seen, 7);
    }
}
