//! Calls `aliased` under another name.

use crate::aliased as renamed;

fn drive() {
    renamed();
}
