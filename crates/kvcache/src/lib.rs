//! Paged KV-cache substrate.
//!
//! Replaces vLLM's PagedAttention memory manager with a token-accurate
//! counted block pool, plus the head-sharding layout logic that makes
//! Shift Parallelism possible:
//!
//! * [`manager::KvCacheManager`] — a fixed pool of fixed-size token
//!   blocks, charged per sequence in whole blocks, with admission control
//!   (the engine refuses work that would overflow the cache, reproducing
//!   the Mooncake wait-time experiment, Figure 10). Blocks are counted
//!   rather than named, so reserving and releasing are O(1).
//! * [`layout::KvShardLayout`] — how KV heads are distributed across an
//!   attention-parallel group, including **KV-cache replication** when the
//!   parallelism degree exceeds the KV head count (§3.2.1: Qwen-30B-A3B has
//!   4 KV heads but must scale to 8 GPUs).
//!
//! # Examples
//!
//! ```
//! use sp_kvcache::KvCacheManager;
//!
//! let mut kv = KvCacheManager::new(1024, 16);
//! assert!(kv.try_reserve(1, 100));
//! assert_eq!(kv.used_tokens(), 100);
//! kv.release(1);
//! assert_eq!(kv.used_tokens(), 0);
//! ```

pub mod layout;
pub mod manager;

pub use layout::KvShardLayout;
pub use manager::KvCacheManager;
