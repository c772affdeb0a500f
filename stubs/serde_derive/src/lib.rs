//! Offline no-op replacement for `serde_derive`.
//!
//! The workspace only uses `#[derive(Serialize, Deserialize)]` as a
//! marker (nothing is ever serialized through serde in-tree), so the
//! derives expand to nothing. This keeps the workspace building in
//! hermetic environments with no crates.io access.

use proc_macro::TokenStream;

/// No-op `Serialize` derive.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

/// No-op `Deserialize` derive.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
