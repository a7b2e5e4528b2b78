"""Optional C-accelerated LRU kernel for :class:`repro.gpu.caches.Cache`.

The pure-Python loop in ``caches.py`` remains the reference implementation;
this module compiles the exact same set-associative LRU walk to a tiny
shared object with the system C compiler and loads it through :mod:`ctypes`.
Draw-level QuadStream batching hands the cache model reference streams of
millions of lines per call, where the interpreted loop dominates the whole
simulator — the kernel removes that floor without changing a single counter.

The accelerator is strictly optional:

* no C compiler, a failed build, or ``REPRO_NO_NATIVE=1`` in the
  environment all fall back silently to the Python loop;
* the compiled object is cached (keyed by a hash of the C source) under the
  package's ``_build`` directory when writable, else the system temp dir,
  so the one-time ``cc`` cost is paid once per machine, not per process.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import pathlib
import shutil
import subprocess
import tempfile

import numpy as np

#: Reference semantics (``lru_touch``, mirroring ``Cache.access_line``): per
#: set, entries are kept most-recently-used first; a hit moves the line to
#: the front and ORs the dirty bit with the write flag; a miss records the
#: line, evicts the least-recently-used entry of a full set (reporting its
#: byte address when dirty) and inserts the new line at the front with
#: dirty = write flag.
_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;

/* Morton helper: tc_spread[b] moves bit k of the byte b to bit 2k, so
   spread16 spreads the low 16 bits of x into the even bit slots with two
   lookups and drops the bits above (repro.util.morton's table). */
#define TC_SP1(b) (((b) & 1) | (((b) & 2) << 1) | (((b) & 4) << 2) \
                   | (((b) & 8) << 3) | (((b) & 16) << 4) | (((b) & 32) << 5) \
                   | (((b) & 64) << 6) | (((b) & 128) << 7))
#define TC_SP4(b) TC_SP1(b), TC_SP1((b) + 1), TC_SP1((b) + 2), TC_SP1((b) + 3)
#define TC_SP16(b) TC_SP4(b), TC_SP4((b) + 4), TC_SP4((b) + 8), TC_SP4((b) + 12)
#define TC_SP64(b) TC_SP16(b), TC_SP16((b) + 16), TC_SP16((b) + 32), \
                   TC_SP16((b) + 48)
static const uint16_t tc_spread[256] = {
    TC_SP64(0), TC_SP64(64), TC_SP64(128), TC_SP64(192)
};

static inline uint64_t spread16(uint64_t x)
{
    return tc_spread[x & 255] | (uint64_t)tc_spread[(x >> 8) & 255] << 16;
}

/* One set-associative LRU access (Cache.access_line): the only C step
   of the reference model, shared by lru_run and colorpass.  Lines are
   nonnegative.  Returns 1 on hit.  On a miss the LRU victim of a full set
   is dropped; *evicted is set to its byte address when it was dirty, else
   left untouched.  inline: with two callers the compiler otherwise keeps
   it out of line, a call per reference in both hot loops. */
static inline int lru_touch(i64 line, int wr, i64 *lines, uint8_t *dirty,
                            i64 *sizes, i64 nsets, i64 ways,
                            i64 line_bytes, i64 *evicted)
{
    i64 s = nsets > 1 ? line % nsets : 0;
    i64 *L = lines + s * ways;
    uint8_t *D = dirty + s * ways;
    i64 size = sizes[s];
    if (size > 0 && L[0] == line) {      /* MRU hit: the memmoves are no-ops */
        D[0] |= (uint8_t)wr;
        return 1;
    }
    for (i64 i = 0; i < size; i++) {
        if (L[i] == line) {
            uint8_t d = D[i] | (uint8_t)wr;
            memmove(L + 1, L, i * sizeof(i64));
            memmove(D + 1, D, i * sizeof(uint8_t));
            L[0] = line;
            D[0] = d;
            return 1;
        }
    }
    if (size >= ways) {
        if (D[size - 1]) *evicted = L[size - 1] * line_bytes;
        size--;
    }
    memmove(L + 1, L, size * sizeof(i64));
    memmove(D + 1, D, size * sizeof(uint8_t));
    L[0] = line;
    D[0] = (uint8_t)wr;
    sizes[s] = size + 1;
    return 0;
}

/* Cache.access_runs' walk: lru_touch over a stream, recording misses and
   dirty evictions in reference order.  write_mode: 0 = all reads, 1 = all
   writes, 2 = per-reference flags[].  lines/dirty hold nsets*ways slots,
   MRU-first per set; sizes[nsets].  counts[0] = hits, counts[1] = misses,
   counts[2] = dirty evictions. */
void lru_run(const i64 *stream, i64 n, int write_mode, const uint8_t *flags,
             i64 *lines, uint8_t *dirty, i64 *sizes,
             i64 nsets, i64 ways, i64 line_bytes,
             i64 *miss_lines, i64 *evictions, i64 *counts)
{
    i64 hits = 0, nm = 0, ne = 0;
    for (i64 k = 0; k < n; k++) {
        i64 evicted = -1;
        int wr = write_mode == 2 ? flags[k] : write_mode;
        if (lru_touch(stream[k], wr, lines, dirty, sizes,
                      nsets, ways, line_bytes, &evicted))
            hits++;
        else
            miss_lines[nm++] = stream[k];
        if (evicted >= 0) evictions[ne++] = evicted;
    }
    counts[0] = hits;
    counts[1] = nm;
    counts[2] = ne;
}

/* Linked-list LRU mirror for the texture walk below.  The reference
   model keeps each set's lines MRU-first and memmoves on every touch —
   O(ways) per access, which dominates once a frame issues tens of
   millions of texture probes.  The mirror keeps every line in a fixed way
   slot, finds it through an open-addressing hash (multiplicative hashing,
   linear probing, backshift deletion) and threads each set's slots on an
   intrusive doubly linked recency list, head = MRU, tail = LRU.  A hit
   unlinks its slot and pushes it to the head; a miss in a full set reuses
   the tail's slot.  Both are O(1), and the list order is the reference's
   MRU-first order at every step, so walking a list from its head exports
   the reference layout bit for bit.  Texture streams never write, so the
   dirty array is never touched and (being all-clear for a read-only
   cache) needs no reordering. */
enum { TC_SLOTS = 4096, TC_HASH = 16384 };

typedef struct {
    i64 *wline;        /* line per way slot, nsets*ways */
    int32_t *prv;      /* recency list links per way slot; -1 ends a list */
    int32_t *nxt;
    int32_t *head;     /* per set: MRU slot, -1 when the set is empty */
    int32_t *tail;     /* per set: LRU slot, -1 when the set is empty */
    i64 *sizes;        /* per-set fill counts (the caller's array, in place) */
    i64 *hkey;         /* open-addressing hash: line -> way slot */
    int32_t *hval;
    i64 hmask;
    i64 nsets, ways;
} lrulist;

static inline i64 tc_hash(const lrulist *C, i64 line)
{
    return (i64)(((uint64_t)line * 0x9E3779B97F4A7C15ull) >> 32) & C->hmask;
}

static inline void tc_unlink(lrulist *C, i64 s, int32_t slot)
{
    int32_t p = C->prv[slot], q = C->nxt[slot];
    if (p >= 0) C->nxt[p] = q; else C->head[s] = q;
    if (q >= 0) C->prv[q] = p; else C->tail[s] = p;
}

static inline void tc_push(lrulist *C, i64 s, int32_t slot)
{
    int32_t h = C->head[s];
    C->prv[slot] = -1;
    C->nxt[slot] = h;
    if (h >= 0) C->prv[h] = slot; else C->tail[s] = slot;
    C->head[s] = slot;
}

/* Import MRU-first sets: slot base + i holds the set's i-th most recent
   line, so the list links the filled slots in slot order. */
static void tc_init(lrulist *C, i64 *wline, int32_t *prv, int32_t *nxt,
                    int32_t *head, int32_t *tail,
                    i64 *hkey, int32_t *hval, i64 hcap,
                    const i64 *lines, i64 *sizes, i64 nsets, i64 ways)
{
    C->wline = wline;
    C->prv = prv;
    C->nxt = nxt;
    C->head = head;
    C->tail = tail;
    C->sizes = sizes;
    C->hkey = hkey;
    C->hval = hval;
    C->hmask = hcap - 1;
    C->nsets = nsets;
    C->ways = ways;
    for (i64 i = 0; i < hcap; i++) hkey[i] = -1;
    for (i64 s = 0; s < nsets; s++) {
        i64 base = s * ways, size = sizes[s];
        head[s] = size > 0 ? (int32_t)base : -1;
        tail[s] = size > 0 ? (int32_t)(base + size - 1) : -1;
        for (i64 i = 0; i < size; i++) {
            i64 slot = base + i;
            i64 line = lines[slot];
            wline[slot] = line;
            prv[slot] = i > 0 ? (int32_t)(slot - 1) : -1;
            nxt[slot] = i < size - 1 ? (int32_t)(slot + 1) : -1;
            i64 h = tc_hash(C, line);
            while (hkey[h] != -1) h = (h + 1) & C->hmask;
            hkey[h] = line;
            hval[h] = (int32_t)slot;
        }
    }
}

static void tc_hdel(lrulist *C, i64 line)
{
    i64 mask = C->hmask;
    i64 pos = tc_hash(C, line);
    while (C->hkey[pos] != line) pos = (pos + 1) & mask;
    i64 hole = pos;
    i64 j = (pos + 1) & mask;
    while (C->hkey[j] != -1) {          /* backshift deletion */
        i64 home = tc_hash(C, C->hkey[j]);
        if (((j - home) & mask) >= ((j - hole) & mask)) {
            C->hkey[hole] = C->hkey[j];
            C->hval[hole] = C->hval[j];
            hole = j;
        }
        j = (j + 1) & mask;
    }
    C->hkey[hole] = -1;
}

/* One read access; returns 1 on hit.  Mirrors lru_touch for a
   never-written stream: dirty state cannot change and evictions never
   write back. */
static int tc_access(lrulist *C, i64 line)
{
    i64 mask = C->hmask;
    i64 h = tc_hash(C, line);
    while (C->hkey[h] != -1) {
        if (C->hkey[h] == line) {
            i64 s = C->nsets > 1 ? line % C->nsets : 0;
            tc_unlink(C, s, C->hval[h]);
            tc_push(C, s, C->hval[h]);
            return 1;
        }
        h = (h + 1) & mask;
    }
    i64 s = C->nsets > 1 ? line % C->nsets : 0;
    int32_t slot;
    if (C->sizes[s] < C->ways) {
        slot = (int32_t)(s * C->ways + C->sizes[s]++);
    } else {
        slot = C->tail[s];
        tc_unlink(C, s, slot);
        tc_hdel(C, C->wline[slot]);
        h = tc_hash(C, line);           /* the hole may have moved */
        while (C->hkey[h] != -1) h = (h + 1) & mask;
    }
    C->hkey[h] = line;
    C->hval[h] = slot;
    C->wline[slot] = line;
    tc_push(C, s, slot);
    return 0;
}

/* Write the mirror back as the reference's MRU-first per-set layout. */
static void tc_export(const lrulist *C, i64 *lines)
{
    for (i64 s = 0; s < C->nsets; s++) {
        i64 i = s * C->ways;
        for (int32_t slot = C->head[s]; slot >= 0; slot = C->nxt[slot])
            lines[i++] = C->wline[slot];
    }
}

/* Per-level address constants of one texcache call. */
typedef struct {
    double inv, hp;        /* 1 / pitch and pitch / 2 (both exact) */
    i64 wmask, hmask;      /* texel wraps: the level's extents - 1 */
    i64 off;               /* base_address + the level's block offset */
} tclevel;

/* L0 line of the probe corner at (x, y): the texel under it, wrapped, its
   4x4 block Morton-coded, the block address divided by block_bytes. */
static inline i64 tc_line(const tclevel *L, double x, double y,
                          i64 block_bytes, int bshift)
{
    i64 tx = (i64)floor(x * L->inv) & L->wmask;
    i64 ty = (i64)floor(y * L->inv) & L->hmask;
    uint64_t m = spread16((uint64_t)(tx >> 2))
               | spread16((uint64_t)(ty >> 2)) << 1;
    i64 addr = L->off + (i64)m * block_bytes;
    return bshift >= 0 ? addr >> bshift : addr / block_bytes;
}

/* Walk L0 lines in order, each L0 miss through L1.  A line equal to the
   one walked just before is an L0 hit without a lookup: that access left
   it at the head of its set, and a never-written stream's hit on the head
   changes nothing. */
static void tc_walk(lrulist *C0, lrulist *C1, const i64 *lines, i64 n,
                    i64 block_bytes, i64 l1_line_bytes, i64 *last,
                    i64 *counts)
{
    i64 prev = *last, l0h = 0, l0m = 0, l1h = 0;
    for (i64 k = 0; k < n; k++) {
        i64 line = lines[k];
        if (line == prev) {
            l0h++;
            continue;
        }
        prev = line;
        if (tc_access(C0, line)) {
            l0h++;
        } else {
            l0m++;
            l1h += tc_access(C1, (line * block_bytes) / l1_line_bytes);
        }
    }
    *last = prev;
    counts[1] += l0h;
    counts[2] += l0m;
    counts[3] += l1h;
    counts[4] += l0m - l1h;
}

/* Fused texture-request pass: the whole per-draw loop of
   TextureUnit._simulate_cache — probe-address generation, the L0 LRU walk,
   and the L1 walk of the L0 miss stream — over the lanes covered[] selects,
   in one call.  Addresses are emitted in the model's exact order: for each
   probe index p, for each mip step, the -0.5 footprint corner of every
   lane taking that (p, step), then the +0.5 corner.  All float arithmetic
   is plain IEEE double in the exact numpy evaluation order (the build must
   not enable contraction or fast-math), so addresses are bit-identical.
   Per sample: t in [-0.5, 0.5) along the anisotropy axis, position
   u + t*du; level = min(mip0 + step, max_level); texels wrap at the mip
   extents, which are powers of two (TextureResource rejects any other
   extent), so the wrap is a mask that equals the wrapped modulus in two's
   complement; the 4x4 block index is Morton-coded.
   Per probe p, one lines pass over the lanes with more than p probes (in
   lane order, compacted in place after each pass) computes the sample
   position once and writes the step-0 corner lines to a0/a1 and, for
   lanes with a second mip, the step-1 lines to b0/b1; tc_walk then runs
   a0, a1, b0, b1 in that order.  Address constants come from per-call
   tables: t per (probe count q, probe p), filled with the numpy
   expression, and the per-level tclevel.
   The collapse passes Cache.access_runs applies first (duplicate-run
   and period-2 alternation folding) are exact no-ops on hit/miss totals
   and LRU state, so the raw walk reproduces their counters bit for bit;
   interleaving each L0 miss's L1 access into the walk is equally neutral
   because the two caches share no state.  Texture streams never write, so
   dirty evictions cannot occur — which is what lets both walks run on the
   linked-list LRU mirror above (imported up front, exported back to
   MRU-first order at the end) instead of the memmove list.  The mirrors
   live on the calling thread's stack: per-slot arrays of TC_SLOTS
   entries, per-set list ends sized by the set count.
   counts: emitted, l0 hits, l0 misses, l1 hits, l1 misses; counts[0] = -1
   means the call exceeded the kernel bounds and nothing was touched: a
   cache over TC_SLOTS way slots, more than TC_LEVELS levels, or a covered
   lane whose probe count (truncated) is outside 1..TC_PROBES or whose
   mip0 is negative (its level would fall outside the table). */
enum { TC_PROBES = 64, TC_LEVELS = 64 };

void texcache(const double *u, const double *v,
              const double *du, const double *dv,
              const i64 *mip0, const double *probes, const i64 *mips,
              const uint8_t *covered, i64 n,
              i64 max_level, i64 width, i64 height,
              const i64 *mip_offsets, i64 n_offsets,
              i64 base_address, i64 block_bytes,
              i64 *l0_lines, uint8_t *l0_dirty, i64 *l0_sizes,
              i64 l0_nsets, i64 l0_ways,
              i64 *l1_lines, uint8_t *l1_dirty, i64 *l1_sizes,
              i64 l1_nsets, i64 l1_ways,
              i64 l1_line_bytes,
              i64 *counts)
{
    i64 l0_slots = l0_nsets * l0_ways, l1_slots = l1_nsets * l1_ways;
    counts[0] = -1;
    if (l0_slots > TC_SLOTS || l1_slots > TC_SLOTS || max_level < 0
        || max_level >= TC_LEVELS || n_offsets < 1)
        return;
    (void)l0_dirty;
    (void)l1_dirty;
    i64 *lanes = malloc(((size_t)n * 5 + 1) * sizeof(i64));
    if (lanes == NULL) return;
    i64 *a0 = lanes + n, *a1 = a0 + n, *b0 = a1 + n, *b1 = b0 + n;
    i64 m = 0, maxq = 0;
    for (i64 i = 0; i < n; i++) {
        if (!covered[i] || mips[i] <= 0) continue;
        if (!(probes[i] >= 1.0 && probes[i] <= TC_PROBES) || mip0[i] < 0) {
            free(lanes);
            return;
        }
        if ((i64)probes[i] > maxq) maxq = (i64)probes[i];
        lanes[m++] = i;
    }
    double ttab[TC_PROBES][TC_PROBES];
    for (i64 q = 1; q <= maxq; q++)
        for (i64 p = 0; p < q; p++)
            ttab[q - 1][p] = ((double)p + 0.5) / (double)q - 0.5;
    tclevel lv[TC_LEVELS];
    for (i64 l = 0; l <= max_level; l++) {
        i64 cl = l > 30 ? 30 : l;
        double pitch = ldexp(1.0, (int)l);
        i64 w = width >> cl, h = height >> cl;
        lv[l].inv = 1.0 / pitch;
        lv[l].hp = 0.5 * pitch;
        lv[l].wmask = (w < 1 ? 1 : w) - 1;
        lv[l].hmask = (h < 1 ? 1 : h) - 1;
        lv[l].off = base_address + mip_offsets[l < n_offsets - 1 ? l : n_offsets - 1];
    }
    /* addr / block_bytes is a shift when block_bytes is a power of two
       (addresses are nonnegative, so the shift is the exact quotient). */
    int bshift = -1;
    if (block_bytes > 0 && (block_bytes & (block_bytes - 1)) == 0) {
        bshift = 0;
        while ((i64)1 << bshift != block_bytes) bshift++;
    }
    i64 wline0[TC_SLOTS], wline1[TC_SLOTS];
    int32_t prv0[TC_SLOTS], nxt0[TC_SLOTS], prv1[TC_SLOTS], nxt1[TC_SLOTS];
    int32_t head0[l0_nsets], tail0[l0_nsets], head1[l1_nsets], tail1[l1_nsets];
    i64 hkey0[TC_HASH], hkey1[TC_HASH];
    int32_t hval0[TC_HASH], hval1[TC_HASH];
    i64 hcap0 = 64, hcap1 = 64;
    while (hcap0 < 4 * l0_slots) hcap0 <<= 1;
    while (hcap1 < 4 * l1_slots) hcap1 <<= 1;
    lrulist C0, C1;
    tc_init(&C0, wline0, prv0, nxt0, head0, tail0, hkey0, hval0, hcap0,
            l0_lines, l0_sizes, l0_nsets, l0_ways);
    tc_init(&C1, wline1, prv1, nxt1, head1, tail1, hkey1, hval1, hcap1,
            l1_lines, l1_sizes, l1_nsets, l1_ways);
    i64 last = -1;
    counts[0] = counts[1] = counts[2] = counts[3] = counts[4] = 0;
    for (i64 p = 0; m > 0; p++) {
        i64 keep = 0, nb = 0;
        for (i64 k = 0; k < m; k++) {
            i64 i = lanes[k];
            i64 q = (i64)probes[i];
            double t = ttab[q - 1][p];
            double pu = u[i] + t * du[i], pv = v[i] + t * dv[i];
            i64 l = mip0[i] < max_level ? mip0[i] : max_level;
            const tclevel *L = lv + l;
            a0[k] = tc_line(L, pu - L->hp, pv - L->hp, block_bytes, bshift);
            a1[k] = tc_line(L, pu + L->hp, pv + L->hp, block_bytes, bshift);
            if (mips[i] > 1) {
                L = lv + (l < max_level ? l + 1 : max_level);
                b0[nb] = tc_line(L, pu - L->hp, pv - L->hp, block_bytes, bshift);
                b1[nb] = tc_line(L, pu + L->hp, pv + L->hp, block_bytes, bshift);
                nb++;
            }
            if (q > p + 1) lanes[keep++] = i;
        }
        tc_walk(&C0, &C1, a0, m, block_bytes, l1_line_bytes, &last, counts);
        tc_walk(&C0, &C1, a1, m, block_bytes, l1_line_bytes, &last, counts);
        tc_walk(&C0, &C1, b0, nb, block_bytes, l1_line_bytes, &last, counts);
        tc_walk(&C0, &C1, b1, nb, block_bytes, l1_line_bytes, &last, counts);
        counts[0] += 2 * (m + nb);
        m = keep;
    }
    free(lanes);
    tc_export(&C0, l0_lines);
    tc_export(&C1, l1_lines);
}

/* Edge evaluation + coverage for candidate quads (the hot first half of
   _rasterize_tri_range).  Pixel centers are 2*cq + {0,1} + 0.5; an edge
   covers a pixel when e > 0, or e == 0 on a top-left edge.  Float order
   matches numpy: e = ((a*px) + (b*py)) + c, doubles, no contraction.
   ea/eb/ec are (T, 3) row-major, etl likewise (bytes); es is (3, n, 4),
   covered (n, 4). */
void raster_edges(const i64 *cqx, const i64 *cqy, const i64 *tri, i64 n,
                  const double *ea, const double *eb, const double *ec,
                  const uint8_t *etl,
                  double *es, uint8_t *covered)
{
    static const i64 DX[4] = {0, 1, 0, 1};
    static const i64 DY[4] = {0, 0, 1, 1};
    for (i64 i = 0; i < n; i++) {
        i64 t = tri[i];
        double px[4], py[4];
        for (int j = 0; j < 4; j++) {
            px[j] = (double)(cqx[i] * 2 + DX[j]) + 0.5;
            py[j] = (double)(cqy[i] * 2 + DY[j]) + 0.5;
        }
        uint8_t cov[4] = {1, 1, 1, 1};
        for (int k = 0; k < 3; k++) {
            double a = ea[t * 3 + k];
            double b = eb[t * 3 + k];
            double cc = ec[t * 3 + k];
            uint8_t tl = etl[t * 3 + k];
            double *ek = es + (k * n + i) * 4;
            for (int j = 0; j < 4; j++) {
                double e = (a * px[j] + b * py[j]) + cc;
                ek[j] = e;
                uint8_t inside = (e > 0.0) || (tl && e == 0.0);
                cov[j] &= inside;
            }
        }
        for (int j = 0; j < 4; j++) covered[i * 4 + j] = cov[j];
    }
}

/* Barycentric + perspective-correct attribute interpolation for the kept
   quads (the second half of _rasterize_tri_range).  Per kept quad i
   (candidate row keep_idx[i], triangle tk[i]) and lane j:
   l_k = e_k * inv_area; depth = sum(l*z) clipped to [0, 1] (numpy clip
   keeps -0.0 and NaN: only d < 0 / d > 1 reassign); 1/w interpolates
   linearly with a 1e-12 floor; u, v and the 4 color channels interpolate
   as (l*attr)*w sums over one_w — every product and sum in numpy's
   association order, plain IEEE double, no contraction. */
void raster_interp(const double *es, i64 n_cand,
                   const i64 *keep_idx, const i64 *tk, i64 nk,
                   const double *inv_area,
                   const double *zs, const double *ws,
                   const double *uvs, const double *cols,
                   double *depth, double *uv, double *col)
{
    const double *e0 = es, *e1 = es + n_cand * 4, *e2 = es + 2 * n_cand * 4;
    for (i64 i = 0; i < nk; i++) {
        i64 ci = keep_idx[i];
        i64 t = tk[i];
        double ia = inv_area[t];
        double z0 = zs[t * 3], z1 = zs[t * 3 + 1], z2 = zs[t * 3 + 2];
        double w0 = ws[t * 3], w1 = ws[t * 3 + 1], w2 = ws[t * 3 + 2];
        const double *uv0 = uvs + t * 6, *uv1 = uv0 + 2, *uv2 = uv0 + 4;
        const double *c0 = cols + t * 12, *c1 = c0 + 4, *c2 = c0 + 8;
        for (int j = 0; j < 4; j++) {
            double l0 = e0[ci * 4 + j] * ia;
            double l1 = e1[ci * 4 + j] * ia;
            double l2 = e2[ci * 4 + j] * ia;
            double d = (l0 * z0 + l1 * z1) + l2 * z2;
            if (d < 0.0) d = 0.0; else if (d > 1.0) d = 1.0;
            depth[i * 4 + j] = d;
            double ow = (l0 * w0 + l1 * w1) + l2 * w2;
            if (ow == 0.0) ow = 1e-12;
            double nu = ((l0 * uv0[0]) * w0 + (l1 * uv1[0]) * w1)
                      + (l2 * uv2[0]) * w2;
            double nv = ((l0 * uv0[1]) * w0 + (l1 * uv1[1]) * w1)
                      + (l2 * uv2[1]) * w2;
            uv[(i * 4 + j) * 2] = nu / ow;
            uv[(i * 4 + j) * 2 + 1] = nv / ow;
            for (int ch = 0; ch < 4; ch++) {
                double nc = ((l0 * c0[ch]) * w0 + (l1 * c1[ch]) * w1)
                          + (l2 * c2[ch]) * w2;
                col[(i * 4 + j) * 4 + ch] = nc / ow;
            }
        }
    }
}

/* Hierarchical-Z refresh (Framebuffer.update_hz): per listed block,
   recompute the max and min of its z tile.  NaN is sticky exactly as in
   numpy's max/min reductions (v != v admits a NaN into the running
   extreme, after which no comparison displaces it). */
void hz_update(const double *z, i64 zw, i64 block,
               const i64 *bx, const i64 *by, i64 n,
               double *hz_max, double *hz_min, i64 bw)
{
    for (i64 k = 0; k < n; k++) {
        const double *base = z + by[k] * block * zw + bx[k] * block;
        double mx = base[0], mn = base[0];
        for (i64 r = 0; r < block; r++) {
            const double *row = base + r * zw;
            for (i64 c = 0; c < block; c++) {
                double v = row[c];
                if (v > mx || v != v) mx = v;
                if (v < mn || v != v) mn = v;
            }
        }
        hz_max[by[k] * bw + bx[k]] = mx;
        hz_min[by[k] * bw + bx[k]] = mn;
    }
}

/* Color-block uniformity probe (Framebuffer.color_blocks_uniform): a block
   compresses when every pixel, clipped to [0, 1], sits within half an
   8-bit LSB of the clipped corner pixel.  The clip keeps -0.0 and NaN
   like numpy's, and the !(d < t) test rejects NaN differences exactly as
   numpy's max-then-compare does. */
void blocks_uniform(const double *color, i64 cw, i64 block,
                    const i64 *bx, const i64 *by, i64 n, uint8_t *out)
{
    const double thresh = 0.5 / 255.0;
    for (i64 k = 0; k < n; k++) {
        const double *base = color + (by[k] * block * cw + bx[k] * block) * 4;
        double c0[4];
        for (int ch = 0; ch < 4; ch++) {
            double v = base[ch];
            if (v < 0.0) v = 0.0; else if (v > 1.0) v = 1.0;
            c0[ch] = v;
        }
        uint8_t uni = 1;
        for (i64 r = 0; r < block && uni; r++) {
            const double *row = base + r * cw * 4;
            for (i64 c = 0; c < block * 4; c++) {
                double v = row[c];
                if (v < 0.0) v = 0.0; else if (v > 1.0) v = 1.0;
                double d = fabs(v - c0[c & 3]);
                if (!(d < thresh)) { uni = 0; break; }
            }
        }
        out[k] = uni;
    }
}

/* Multi-level bilinear fetch: TextureUnit._bilinear's per-unique-level
   loop in one pass over a flattened mip chain.  flat holds every RGBA
   float32 mip concatenated; offs[l]/hs[l]/ws[l] give mip l's texel offset
   and extents.  Every extent is a power of two (TextureResource rejects
   any other), so a texel index wraps with & (w - 1), which equals numpy's
   % w in two's complement, negative indices included; and u / 2^l rounds
   exactly as u * 2^-l, so the per-call table inv[l] = 2^-l replaces the
   division.  Weights and accumulation follow numpy's evaluation order
   and dtype promotion exactly: texels promote to double, products
   associate as (((c*gx)*gy)), the sum left-to-right, and the final store
   narrows to float with round-to-nearest, so colors are bit-identical to
   the per-level numpy fetch (lanes are independent, so fusing the levels
   changes nothing).  Like numpy's, the weights subtract the int64 texel
   index, not the double floor: the two differ once |mu| >= 2^63, where
   the conversion gives INT64_MIN, as numpy's astype does on x86-64. */
void bilinear_levels(const float *flat, const i64 *offs,
                     const i64 *hs, const i64 *ws, i64 nlevels,
                     const double *u, const double *v,
                     const i64 *mip0, i64 n, float *out)
{
    double inv[nlevels];
    for (i64 l = 0; l < nlevels; l++) inv[l] = ldexp(1.0, -(int)l);
    for (i64 i = 0; i < n; i++) {
        i64 level = mip0[i];
        if (level < 0) level = 0;
        if (level >= nlevels) level = nlevels - 1;
        const float *mip = flat + offs[level] * 4;
        i64 h = hs[level], w = ws[level];
        double mu = u[i] * inv[level] - 0.5;
        double mv = v[i] * inv[level] - 0.5;
        i64 xi = (i64)floor(mu), yi = (i64)floor(mv);
        double fx = mu - (double)xi, fy = mv - (double)yi;
        double gx = 1.0 - fx, gy = 1.0 - fy;
        i64 x0w = xi & (w - 1), x1w = (xi + 1) & (w - 1);
        i64 y0w = yi & (h - 1), y1w = (yi + 1) & (h - 1);
        const float *p00 = mip + (y0w * w + x0w) * 4;
        const float *p10 = mip + (y0w * w + x1w) * 4;
        const float *p01 = mip + (y1w * w + x0w) * 4;
        const float *p11 = mip + (y1w * w + x1w) * 4;
        for (i64 ch = 0; ch < 4; ch++) {
            double a = ((double)p00[ch] * gx) * gy;
            double b = ((double)p10[ch] * fx) * gy;
            double cc = ((double)p01[ch] * gx) * fy;
            double d = ((double)p11[ch] * fx) * fy;
            out[i * 4 + ch] = (float)(((a + b) + cc) + d);
        }
    }
}

/* Fused color stage over a shaded stream's per-triangle groups:
   ColorStage.process called once per group, in one pass.  Per group, in
   order: skip entirely when no lane is live (process's write_mask.any()
   gate — no blending, no accounting); blend live lanes into the color
   plane in flattened lane order (replace = last write wins; add =
   accumulate all, then clip touched pixels — the clip keeps -0.0 and NaN
   like np.clip; modulate = sequential multiply, no clip; alpha =
   sequential a*src + (1-a)*dst per lane); then run every quad of the
   group through the color cache (write=true).  Miss fill bytes read the
   block state inline — states mutate only at group end, so this matches
   the batched path's read-after-walk.  Dirty evictions are deferred to
   the group end (an evicted line can re-miss within the same group and
   must still see the pre-group state), then each one probes block
   uniformity from the settled color plane, adds half or full line bytes,
   and sets the block state, in eviction order.  escratch is caller
   scratch of at least one entry per quad.  xs/ys lane 0 of a quad is
   exactly (2*qx, 2*qy), which the block coordinates derive from.
   counts: accesses, hits, misses, read bytes, write bytes. */
void colorpass(const i64 *xs, const i64 *ys, const double *colors,
               const uint8_t *live,
               const i64 *starts, const i64 *ends, i64 ngroups,
               i64 blend_mode,
               double *fbcolor, i64 cw,
               uint8_t *block_state, i64 block, i64 blocks_x,
               i64 *c_lines, uint8_t *c_dirty, i64 *c_sizes,
               i64 nsets, i64 ways, i64 line_bytes,
               i64 compression, i64 fast_clear,
               i64 *escratch, i64 *counts)
{
    const double thresh = 0.5 / 255.0;
    i64 acc = 0, hits = 0, misses = 0, rbytes = 0, wbytes = 0;
    for (i64 g = 0; g < ngroups; g++) {
        i64 s = starts[g], e = ends[g];
        int any = 0;
        for (i64 q = s; q < e && !any; q++)
            for (int l = 0; l < 4; l++)
                if (live[q * 4 + l]) { any = 1; break; }
        if (!any) continue;
        if (blend_mode == 0) {           /* replace */
            for (i64 q = s; q < e; q++)
                for (int l = 0; l < 4; l++) {
                    if (!live[q * 4 + l]) continue;
                    double *dst = fbcolor
                        + (ys[q * 4 + l] * cw + xs[q * 4 + l]) * 4;
                    const double *src = colors + (q * 4 + l) * 4;
                    for (int ch = 0; ch < 4; ch++) dst[ch] = src[ch];
                }
        } else if (blend_mode == 1) {    /* add: accumulate, then clip */
            for (i64 q = s; q < e; q++)
                for (int l = 0; l < 4; l++) {
                    if (!live[q * 4 + l]) continue;
                    double *dst = fbcolor
                        + (ys[q * 4 + l] * cw + xs[q * 4 + l]) * 4;
                    const double *src = colors + (q * 4 + l) * 4;
                    for (int ch = 0; ch < 4; ch++)
                        dst[ch] = dst[ch] + src[ch];
                }
            for (i64 q = s; q < e; q++)
                for (int l = 0; l < 4; l++) {
                    if (!live[q * 4 + l]) continue;
                    double *dst = fbcolor
                        + (ys[q * 4 + l] * cw + xs[q * 4 + l]) * 4;
                    for (int ch = 0; ch < 4; ch++) {
                        double vv = dst[ch];
                        if (vv < 0.0) vv = 0.0;
                        else if (vv > 1.0) vv = 1.0;
                        dst[ch] = vv;
                    }
                }
        } else if (blend_mode == 2) {    /* modulate */
            for (i64 q = s; q < e; q++)
                for (int l = 0; l < 4; l++) {
                    if (!live[q * 4 + l]) continue;
                    double *dst = fbcolor
                        + (ys[q * 4 + l] * cw + xs[q * 4 + l]) * 4;
                    const double *src = colors + (q * 4 + l) * 4;
                    for (int ch = 0; ch < 4; ch++)
                        dst[ch] = dst[ch] * src[ch];
                }
        } else {                         /* alpha */
            for (i64 q = s; q < e; q++)
                for (int l = 0; l < 4; l++) {
                    if (!live[q * 4 + l]) continue;
                    double *dst = fbcolor
                        + (ys[q * 4 + l] * cw + xs[q * 4 + l]) * 4;
                    const double *src = colors + (q * 4 + l) * 4;
                    double a = src[3];
                    for (int ch = 0; ch < 4; ch++) {
                        double na = a * src[ch];
                        double nb = (1.0 - a) * dst[ch];
                        dst[ch] = na + nb;
                    }
                }
        }
        i64 ne = 0;
        for (i64 q = s; q < e; q++) {
            i64 bx = xs[q * 4] / block;
            i64 by = ys[q * 4] / block;
            i64 line = by * blocks_x + bx;
            i64 evicted = -1;
            acc++;
            if (lru_touch(line, 1, c_lines, c_dirty, c_sizes,
                          nsets, ways, line_bytes, &evicted)) {
                hits++;
            } else {
                misses++;
                uint8_t st = block_state[line];
                i64 nb = line_bytes;
                if (compression && st == 1) nb = line_bytes / 2;  /* COMPRESSED */
                if (fast_clear && st == 0) nb = 0;                /* CLEARED */
                rbytes += nb;
            }
            if (evicted >= 0) escratch[ne++] = evicted / line_bytes;
        }
        for (i64 k = 0; k < ne; k++) {
            i64 line = escratch[k];
            i64 bx = line % blocks_x, by = line / blocks_x;
            uint8_t uni = 0;
            if (compression) {
                const double *base = fbcolor
                    + (by * block * cw + bx * block) * 4;
                double c0[4];
                for (int ch = 0; ch < 4; ch++) {
                    double vv = base[ch];
                    if (vv < 0.0) vv = 0.0; else if (vv > 1.0) vv = 1.0;
                    c0[ch] = vv;
                }
                uni = 1;
                for (i64 r = 0; r < block && uni; r++) {
                    const double *row = base + r * cw * 4;
                    for (i64 c = 0; c < block * 4; c++) {
                        double vv = row[c];
                        if (vv < 0.0) vv = 0.0; else if (vv > 1.0) vv = 1.0;
                        double d = fabs(vv - c0[c & 3]);
                        if (!(d < thresh)) { uni = 0; break; }
                    }
                }
            }
            wbytes += uni ? line_bytes / 2 : line_bytes;
            block_state[line] = uni ? 1 : 2;  /* COMPRESSED : UNCOMPRESSED */
        }
    }
    counts[0] = acc;
    counts[1] = hits;
    counts[2] = misses;
    counts[3] = rbytes;
    counts[4] = wbytes;
}

/* One draw's early- or late-Z stage (ZStencilStage.test_write) over the
   stream's triangle groups (runs of equal tri), in submission order: the
   per-triangle reference's order.  A quad reads and writes only its own
   block, so per group each quad is HZ-culled against the state from
   before the triangle, tested and written, and the group's blocks are
   refreshed after its last quad, as update_hz_quads and
   note_stencil_write do after each triangle.  p[]: depth_test,
   depth_func (never, less, lequal, equal, always), depth_write,
   stencil_test, stencil_func (always, equal, notequal, never),
   stencil_ref, stencil_write, front then back sfail/zfail/zpass (keep,
   zero, replace, incr_wrap, decr_wrap), hz_on, hz_minmax, hz_stencil.
   The HZ cull reads cover lanes, with NaN sticky in the quad's z extremes
   as in numpy's where(cover, z, +-inf) reductions; tests, writes and
   counts read alive lanes.  Wraps match numpy's int16 % 256.  Every
   output is written: pass_mask (4 per quad), wrote and entered (1 per
   quad), counts = HZ-culled quads, then the fragments, quads and
   complete quads that entered.  counts[0] = -1 when scratch allocation
   fails, with the planes untouched. */
void zstencilpass(const i64 *qx, const i64 *qy, const i64 *tri, i64 n,
                  const uint8_t *cover, const uint8_t *alive,
                  const double *z, const uint8_t *front, const i64 *p,
                  double *fbz, int16_t *stencil, i64 zw,
                  double *hz_max, double *hz_min,
                  int16_t *hzs_min, int16_t *hzs_max,
                  i64 block, i64 blocks_x, i64 blocks_y,
                  uint8_t *pass_mask, uint8_t *wrote, uint8_t *entered,
                  i64 *counts)
{
    static const i64 DX[4] = {0, 1, 0, 1};
    static const i64 DY[4] = {0, 0, 1, 1};
    const i64 depth_test = p[0], dfunc = p[1], depth_write = p[2];
    const i64 stencil_test = p[3], sfunc = p[4], sref = p[5];
    const int sops = stencil_test && p[6];
    const int zwrites = depth_test && depth_write;
    const i64 hz_on = p[13], hz_minmax = p[14], hz_stencil = p[15];
    /* Per block: 1 = refresh the stencil band, 2 = refresh HZ, at the
       end of the current group. */
    uint8_t *mark = calloc((size_t)(blocks_x * blocks_y), 1);
    if (!mark) { counts[0] = -1; return; }
    i64 culled_n = 0, frags = 0, quads = 0, complete = 0, g1;
    for (i64 g0 = 0; g0 < n; g0 = g1) {
        g1 = g0 + 1;
        while (g1 < n && tri[g1] == tri[g0]) g1++;
        for (i64 q = g0; q < g1; q++) {
            const uint8_t *cov = cover + q * 4, *al = alive + q * 4;
            const double *zq = z + q * 4;
            uint8_t *pm = pass_mask + q * 4;
            i64 b = (qy[q] * 2 / block) * blocks_x + qx[q] * 2 / block;
            int culled = 0;
            if (hz_on) {
                double zmin = INFINITY, zmax = -INFINITY;
                for (int l = 0; l < 4; l++) {
                    double lo = cov[l] ? zq[l] : INFINITY;
                    double hi = cov[l] ? zq[l] : -INFINITY;
                    if (lo < zmin || lo != lo) zmin = lo;
                    if (hi > zmax || hi != hi) zmax = hi;
                }
                culled = zmin > hz_max[b] || (hz_minmax && zmax < hz_min[b]);
                if (hz_stencil && sfunc == 1)
                    culled |= sref < hzs_min[b] || sref > hzs_max[b];
                else if (hz_stencil && sfunc == 2)
                    culled |= hzs_min[b] == sref && hzs_max[b] == sref;
            }
            entered[q] = (uint8_t)!culled;
            if (culled) {
                culled_n++;
                wrote[q] = 0;
                memset(pm, 0, 4);
                continue;
            }
            const i64 *ops = p + (front[q] ? 7 : 10);
            int all4 = 1, changed = 0, zwrote = 0;
            for (int l = 0; l < 4; l++) {
                pm[l] = 0;
                if (!al[l]) { all4 = 0; continue; }
                frags++;
                i64 pix = (qy[q] * 2 + DY[l]) * zw + qx[q] * 2 + DX[l];
                double cz = fbz[pix];
                i64 cs = stencil[pix];
                int zp = 1, sp = 1;
                if (depth_test) {
                    if (dfunc == 0) zp = 0;
                    else if (dfunc == 1) zp = zq[l] < cz;
                    else if (dfunc == 2) zp = zq[l] <= cz;
                    else if (dfunc == 3) zp = fabs(zq[l] - cz) <= 1e-7;
                }
                if (stencil_test) {
                    if (sfunc == 1) sp = cs == sref;
                    else if (sfunc == 2) sp = cs != sref;
                    else if (sfunc == 3) sp = 0;
                }
                pm[l] = (uint8_t)(zp && sp);
                i64 op = sops ? ops[!sp ? 0 : !zp ? 1 : 2] : 0;
                if (op) {
                    i64 ns = op == 1 ? 0 : op == 2 ? sref
                           : (((op == 3 ? cs + 1 : cs - 1) % 256) + 256) % 256;
                    if ((int16_t)ns != cs) {
                        stencil[pix] = (int16_t)ns;
                        changed = 1;
                    }
                }
                if (zwrites && pm[l]) {
                    fbz[pix] = zq[l];
                    zwrote = 1;
                }
            }
            quads++;
            complete += all4;
            wrote[q] = (uint8_t)(changed || zwrote);
            if (changed) mark[b] |= 1;
            if (depth_write && wrote[q]) mark[b] |= 2;
        }
        for (i64 q = g0; q < g1; q++) {
            i64 bx = qx[q] * 2 / block, by = qy[q] * 2 / block;
            i64 b = by * blocks_x + bx;
            uint8_t m = mark[b];
            if (!m) continue;
            mark[b] = 0;
            if (m & 1) {
                const int16_t *sb = stencil + by * block * zw + bx * block;
                int16_t mn = sb[0], mx = sb[0];
                for (i64 r = 0; r < block; r++)
                    for (i64 c = 0; c < block; c++) {
                        int16_t v = sb[r * zw + c];
                        if (v < mn) mn = v;
                        if (v > mx) mx = v;
                    }
                hzs_min[b] = mn;
                hzs_max[b] = mx;
            }
            if (m & 2) hz_update(fbz, zw, block, &bx, &by, 1,
                                 hz_max, hz_min, blocks_x);
        }
    }
    free(mark);
    counts[0] = culled_n;
    counts[1] = frags;
    counts[2] = quads;
    counts[3] = complete;
}
"""

_lib: ctypes.CDLL | None = None
_tried = False

_I64P = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
_U8P = np.ctypeslib.ndpointer(np.uint8, flags="C_CONTIGUOUS")
_F64P = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
_F32P = np.ctypeslib.ndpointer(np.float32, flags="C_CONTIGUOUS")
_I16P = np.ctypeslib.ndpointer(np.int16, flags="C_CONTIGUOUS")
_BOOLP = np.ctypeslib.ndpointer(np.bool_, flags="C_CONTIGUOUS")


def _cache_dirs() -> list[pathlib.Path]:
    dirs = []
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        dirs.append(pathlib.Path(override))
    dirs.append(pathlib.Path(__file__).resolve().parent / "_build")
    dirs.append(pathlib.Path(tempfile.gettempdir()) / "repro-native")
    return dirs


def _source_digest() -> str:
    """Full SHA-256 of the C source — the binary cache key."""
    return hashlib.sha256(_SOURCE.encode()).hexdigest()


def _compile(so_path: pathlib.Path) -> bool:
    cc = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    if cc is None:
        return False
    try:
        so_path.parent.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=so_path.parent) as tmp:
            src = pathlib.Path(tmp) / "kernels.c"
            src.write_text(_SOURCE)
            out = pathlib.Path(tmp) / "kernels.so"
            # -ffp-contract=off: the float kernels promise numpy's exact
            # IEEE results, so the compiler must not fuse multiply-adds.
            subprocess.run(
                [
                    cc, "-O2", "-ffp-contract=off", "-shared", "-fPIC",
                    str(src), "-o", str(out), "-lm",
                ],
                check=True,
                capture_output=True,
                timeout=120,
            )
            # Atomic publish: concurrent farm workers may race to build,
            # and a visible .so is always a complete one.
            os.replace(out, so_path)
        return True
    except (OSError, subprocess.SubprocessError):
        return False


def _quarantine(so_path: pathlib.Path) -> None:
    """Move a failed binary aside for post-mortem."""
    try:
        os.replace(so_path, f"{so_path}.bad-{os.getpid()}")
    except OSError:
        try:
            so_path.unlink()
        except OSError:
            pass


def _load() -> ctypes.CDLL | None:
    # Keyed by the *full* SHA-256 of the C source: editing any kernel can
    # never load a stale binary.  A corrupt artifact (unloadable .so,
    # missing symbol) is quarantined and rebuilt once before falling
    # through to the next cache directory.
    name = f"repro-kernels-{_source_digest()}.so"
    for directory in _cache_dirs():
        so_path = directory / name
        lib = None
        for _attempt in range(2):
            if not so_path.exists() and not _compile(so_path):
                break
            try:
                lib = ctypes.CDLL(str(so_path))
                _configure(lib)
            except (OSError, AttributeError):
                lib = None
                _quarantine(so_path)
                continue
            break
        if lib is not None:
            return lib
    return None


def _configure(lib: ctypes.CDLL) -> None:
    """Set prototypes; raises AttributeError when a kernel is missing."""
    lib.lru_run.restype = None
    lib.lru_run.argtypes = [
        _I64P, ctypes.c_int64, ctypes.c_int, ctypes.c_void_p,
        _I64P, _U8P, _I64P,
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        _I64P, _I64P, _I64P,
    ]
    lib.texcache.restype = None
    lib.texcache.argtypes = [
        _F64P, _F64P, _F64P, _F64P,
        _I64P, _F64P, _I64P, _BOOLP, ctypes.c_int64,
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        _I64P, ctypes.c_int64,
        ctypes.c_int64, ctypes.c_int64,
        _I64P, _U8P, _I64P, ctypes.c_int64, ctypes.c_int64,
        _I64P, _U8P, _I64P, ctypes.c_int64, ctypes.c_int64,
        ctypes.c_int64,
        _I64P,
    ]
    lib.raster_edges.restype = None
    lib.raster_edges.argtypes = [
        _I64P, _I64P, _I64P, ctypes.c_int64,
        _F64P, _F64P, _F64P, _U8P,
        _F64P, _U8P,
    ]
    lib.raster_interp.restype = None
    lib.raster_interp.argtypes = [
        _F64P, ctypes.c_int64,
        _I64P, _I64P, ctypes.c_int64,
        _F64P,
        _F64P, _F64P, _F64P, _F64P,
        _F64P, _F64P, _F64P,
    ]
    lib.hz_update.restype = None
    lib.hz_update.argtypes = [
        _F64P, ctypes.c_int64, ctypes.c_int64,
        _I64P, _I64P, ctypes.c_int64,
        _F64P, _F64P, ctypes.c_int64,
    ]
    lib.blocks_uniform.restype = None
    lib.blocks_uniform.argtypes = [
        _F64P, ctypes.c_int64, ctypes.c_int64,
        _I64P, _I64P, ctypes.c_int64, _U8P,
    ]
    lib.bilinear_levels.restype = None
    lib.bilinear_levels.argtypes = [
        _F32P, _I64P, _I64P, _I64P, ctypes.c_int64,
        _F64P, _F64P, _I64P, ctypes.c_int64,
        _F32P,
    ]
    lib.colorpass.restype = None
    lib.colorpass.argtypes = [
        _I64P, _I64P, _F64P, _U8P,
        _I64P, _I64P, ctypes.c_int64,
        ctypes.c_int64,
        _F64P, ctypes.c_int64,
        _U8P, ctypes.c_int64, ctypes.c_int64,
        _I64P, _U8P, _I64P, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        ctypes.c_int64, ctypes.c_int64,
        _I64P, _I64P,
    ]
    lib.zstencilpass.restype = None
    lib.zstencilpass.argtypes = [
        _I64P, _I64P, _I64P, ctypes.c_int64,
        _U8P, _U8P, _F64P, _U8P, _I64P,
        _F64P, _I16P, ctypes.c_int64,
        _F64P, _F64P, _I16P, _I16P,
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        _U8P, _U8P, _U8P,
        _I64P,
    ]


def _fault_blocked() -> bool:
    """Whether an injected fault plan disables the native build.

    Imported lazily: this module is loaded early in the ``repro.gpu``
    import chain, and the fault layer lives in ``repro.farm`` — a runtime
    import here keeps the module graph acyclic.
    """
    if "REPRO_FAULTS" not in os.environ:
        return False
    try:
        from repro.farm.faults import native_compile_fault

        return native_compile_fault()
    except Exception:
        return False


def _reset() -> None:
    """Forget the cached probe so the next :func:`available` re-evaluates.

    Used by the fault-injection layer (forked pool workers inherit the
    parent's probe result) and by tests.
    """
    global _lib, _tried
    _lib = None
    _tried = False


def available() -> bool:
    """Whether the compiled kernel can be used (lazy one-time build)."""
    global _lib, _tried
    if not _tried:
        _tried = True
        if os.environ.get("REPRO_NO_NATIVE") or _fault_blocked():
            _lib = None
        else:
            _lib = _load()
    return _lib is not None


def lru_run(
    stream: np.ndarray,
    writes: bool | np.ndarray,
    state: tuple[np.ndarray, np.ndarray, np.ndarray],
    nsets: int,
    ways: int,
    line_bytes: int,
    miss_buf: np.ndarray,
    evict_buf: np.ndarray,
) -> tuple[int, np.ndarray, np.ndarray]:
    """Walk ``stream`` in place over a ``Cache.kernel_state`` triple.

    ``writes`` is one flag for the whole stream or one per reference.
    Returns ``(hits, miss_lines, dirty_eviction_addrs)``; the state arrays
    are updated to the post-stream LRU contents.  ``miss_buf``/``evict_buf``
    are caller-owned scratch arrays of at least ``len(stream)`` entries; the
    returned arrays are trimmed copies.
    """
    counts = np.zeros(3, dtype=np.int64)
    if isinstance(writes, bool):
        write_mode, flags_ptr = int(writes), None
    else:
        flags = np.ascontiguousarray(writes, dtype=np.uint8)
        write_mode, flags_ptr = 2, flags.ctypes.data_as(ctypes.c_void_p)
    _lib.lru_run(
        stream, stream.shape[0], write_mode, flags_ptr,
        state[0], state[1], state[2],
        nsets, ways, line_bytes,
        miss_buf, evict_buf, counts,
    )
    hits, misses, evictions = (int(v) for v in counts)
    return hits, miss_buf[:misses].copy(), evict_buf[:evictions].copy()


def texcache(
    u: np.ndarray,
    v: np.ndarray,
    du: np.ndarray,
    dv: np.ndarray,
    mip0: np.ndarray,
    probes: np.ndarray,
    mips: np.ndarray,
    covered: np.ndarray,
    max_level: int,
    width: int,
    height: int,
    mip_offsets: np.ndarray,
    base_address: int,
    block_bytes: int,
    l0_state: tuple[np.ndarray, np.ndarray, np.ndarray],
    l0_geometry: tuple[int, int],
    l1_state: tuple[np.ndarray, np.ndarray, np.ndarray],
    l1_geometry: tuple[int, int],
    l1_line_bytes: int,
) -> tuple[int, int, int, int, int] | None:
    """Fused texture address generation + L0/L1 cache walk, in place.

    Walks the probes of the lanes the boolean ``covered`` selects; the
    other lanes' values are never read.  Returns ``(emitted, l0_hits,
    l0_misses, l1_hits, l1_misses)`` and mutates both cache state triples,
    or ``None`` (state untouched) when a covered lane's probe count is
    outside 1..64 or its ``mip0`` is negative, the texture has more than
    64 levels, or a cache has more than 4096 way slots.
    """
    n = u.shape[0]
    if any(a.shape[0] != n for a in (v, du, dv, mip0, probes, mips, covered)):
        raise ValueError("texcache: lane arrays differ in length")
    counts = np.zeros(5, dtype=np.int64)
    _lib.texcache(
        u, v, du, dv,
        mip0, probes, mips, covered, n,
        max_level, width, height,
        mip_offsets, mip_offsets.shape[0],
        base_address, block_bytes,
        l0_state[0], l0_state[1], l0_state[2],
        l0_geometry[0], l0_geometry[1],
        l1_state[0], l1_state[1], l1_state[2],
        l1_geometry[0], l1_geometry[1],
        l1_line_bytes,
        counts,
    )
    if counts[0] < 0:
        return None
    return tuple(int(v) for v in counts)  # type: ignore[return-value]


def raster_edges(
    cqx: np.ndarray,
    cqy: np.ndarray,
    tri: np.ndarray,
    ea: np.ndarray,
    eb: np.ndarray,
    ec: np.ndarray,
    etl: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Edge values (3, n, 4) and coverage mask (n, 4) for candidate quads."""
    n = cqx.shape[0]
    es = np.empty((3, n, 4), dtype=np.float64)
    covered = np.empty((n, 4), dtype=np.uint8)
    _lib.raster_edges(cqx, cqy, tri, n, ea, eb, ec, etl, es, covered)
    return es, covered


def raster_interp(
    es: np.ndarray,
    keep_idx: np.ndarray,
    tk: np.ndarray,
    inv_area: np.ndarray,
    zs: np.ndarray,
    ws: np.ndarray,
    uvs: np.ndarray,
    cols: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Depth (K, 4), uv (K, 4, 2) and color (K, 4, 4) for the kept quads."""
    nk = keep_idx.shape[0]
    depth = np.empty((nk, 4), dtype=np.float64)
    uv = np.empty((nk, 4, 2), dtype=np.float64)
    col = np.empty((nk, 4, 4), dtype=np.float64)
    _lib.raster_interp(
        es, es.shape[1], keep_idx, tk, nk,
        inv_area, zs, ws, uvs, cols,
        depth, uv, col,
    )
    return depth, uv, col


def hz_update(
    z: np.ndarray,
    block: int,
    bx: np.ndarray,
    by: np.ndarray,
    hz_max: np.ndarray,
    hz_min: np.ndarray,
) -> None:
    """Refresh ``hz_max``/``hz_min`` in place for the listed blocks."""
    _lib.hz_update(
        z, z.shape[1], block, bx, by, bx.shape[0],
        hz_max, hz_min, hz_max.shape[1],
    )


def blocks_uniform(
    color: np.ndarray,
    block: int,
    bx: np.ndarray,
    by: np.ndarray,
) -> np.ndarray:
    """Uniformity flags (uint8) for the listed color blocks."""
    out = np.empty(bx.shape[0], dtype=np.uint8)
    _lib.blocks_uniform(
        color, color.shape[1], block, bx, by, bx.shape[0], out,
    )
    return out


def bilinear_levels(
    flat: np.ndarray,
    offs: np.ndarray,
    hs: np.ndarray,
    ws: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    mip0: np.ndarray,
    out: np.ndarray,
) -> None:
    """Bilinear fetch across a flattened RGBA mip chain, one pass."""
    _lib.bilinear_levels(
        flat, offs, hs, ws, offs.shape[0],
        u, v, mip0, u.shape[0], out,
    )


def colorpass(
    xs: np.ndarray,
    ys: np.ndarray,
    colors: np.ndarray,
    live: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    blend_mode: int,
    fbcolor: np.ndarray,
    block_state: np.ndarray,
    block: int,
    blocks_x: int,
    cache_state: tuple[np.ndarray, np.ndarray, np.ndarray],
    nsets: int,
    ways: int,
    line_bytes: int,
    compression: bool,
    fast_clear: bool,
    escratch: np.ndarray,
) -> tuple[int, int, int, int, int]:
    """Fused color blend + cache accounting over per-triangle groups.

    Mutates ``fbcolor``/``block_state`` and the cache state triple in
    place; returns ``(accesses, hits, misses, read_bytes, write_bytes)``.
    ``escratch`` is caller scratch of at least ``len(xs) // 4`` entries.
    """
    counts = np.zeros(5, dtype=np.int64)
    _lib.colorpass(
        xs, ys, colors, live,
        starts, ends, starts.shape[0],
        blend_mode,
        fbcolor, fbcolor.shape[1],
        block_state, block, blocks_x,
        cache_state[0], cache_state[1], cache_state[2],
        nsets, ways, line_bytes,
        int(compression), int(fast_clear),
        escratch, counts,
    )
    return tuple(int(v) for v in counts)  # type: ignore[return-value]



def zstencilpass(
    qx: np.ndarray,
    qy: np.ndarray,
    tri: np.ndarray,
    cover: np.ndarray,
    alive: np.ndarray,
    z: np.ndarray,
    front: np.ndarray,
    params: np.ndarray,
    planes: tuple[np.ndarray, ...],
    block: int,
    pass_mask: np.ndarray,
    wrote: np.ndarray,
    entered: np.ndarray,
) -> tuple[int, int, int, int]:
    """Draw-level HZ cull and Z/stencil test and write over triangle groups.

    ``planes`` is ``(z, stencil, hz_max, hz_min, hz_stencil_min,
    hz_stencil_max)``, all updated in place.  ``cover``/``alive``/``front``
    and the outputs ``pass_mask``/``wrote``/``entered`` are contiguous bool
    arrays; every output entry is written.  Returns ``(hz_culled,
    fragments, quads, complete_quads)``.
    """
    counts = np.zeros(4, dtype=np.int64)
    fbz, stencil, hz_max, hz_min, hzs_min, hzs_max = planes
    _lib.zstencilpass(
        qx, qy, tri, qx.shape[0],
        cover.view(np.uint8), alive.view(np.uint8), z,
        front.view(np.uint8), params,
        fbz, stencil, fbz.shape[1],
        hz_max, hz_min, hzs_min, hzs_max,
        block, hz_max.shape[1], hz_max.shape[0],
        pass_mask.view(np.uint8), wrote.view(np.uint8),
        entered.view(np.uint8),
        counts,
    )
    if counts[0] < 0:
        raise MemoryError("zstencilpass: block marks not allocated")
    return tuple(int(v) for v in counts)  # type: ignore[return-value]
