/* Native in-place intersection kernel for the repro.core.backends registry.
 *
 * The contract is docs/KERNELS.md.  Pair i intersects block a_ids[i] of
 * one CSR with block b_ids[i] of another, both read in place, where
 * block j of a CSR is adj[xadj[j] : xadj[j + 1]], sorted ascending with
 * unique values.  A gathered batch is the case a_ids = b_ids = 0..k-1.
 *
 * Pairs come in runs of equal a_ids (a record (v, A(v)) expands to one
 * pair per owned u in A(v), and local arcs are grouped by source), so
 * the kernel marks a run's A block once in a zeroed byte map of `bound`
 * entries and probes every B block of the run against it (the reuse
 * Tom & Karypis exploit with a hash map keyed on the shared list).
 * Skewed pairs gallop instead (binary search with doubling probes),
 * where marking or probing would touch every element of the big side:
 *   - |A| * 16 <= |B|: gallop A's elements through B;
 *   - |B| * 16 <= |A| and the run has not marked A yet: gallop B
 *     through A.
 * Every strategy emits a pair's hits in ascending order (B is a sorted
 * set and probes scan it in order; a gallop scans its sorted needle
 * side in order), so the (pair, element) stream equals a merge's.
 *
 * Every value used as a map index is checked against [0, bound) with
 * one unsigned compare; the first one outside makes the kernel return
 * RANGE_ERROR, never a short count.  Charged ops (|A| + |B| per pair)
 * are accounted by the Python caller; nothing here feeds the cost model.
 */

#include <stdint.h>

typedef int64_t i64;

/* How much bigger one side must be before galloping beats marking. */
#define GALLOP_RATIO 16

/* Returned when a value outside [0, bound) would index the map. */
#define RANGE_ERROR (-1)

/* Returned when the hit stream would overrun its capacity, which only
 * a block with duplicate values can cause. */
#define CAPACITY_ERROR (-2)

/* First index in [lo, hi) with arr[idx] >= key (classic lower bound). */
static i64 lower_bound(const i64 *arr, i64 lo, i64 hi, i64 key)
{
    while (lo < hi) {
        i64 mid = lo + ((hi - lo) >> 1);
        if (arr[mid] < key)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* Galloping lower bound: doubling probe from lo, then binary search in
 * the bracketed range.  O(log d) where d is the distance advanced, so a
 * full pass over the needles costs O(n log(|hay| / n)). */
static i64 gallop_lb(const i64 *arr, i64 lo, i64 hi, i64 key)
{
    i64 step = 1, lo2, hi2;
    if (lo >= hi || arr[lo] >= key)
        return lo;
    while (lo + step < hi && arr[lo + step] < key)
        step <<= 1;
    lo2 = lo + (step >> 1) + 1; /* arr[lo + step/2] < key is established */
    hi2 = (lo + step < hi) ? lo + step : hi;
    return lower_bound(arr, lo2, hi2, key);
}

/* Hits of the sorted needles in the sorted haystack, appended at `out`
 * when the outputs are non-NULL; returns the new output position. */
static i64 gallop_pair(const i64 *needle, i64 nn, const i64 *hay, i64 hn,
                       i64 pair, i64 *pair_out, i64 *elem_out, i64 out)
{
    i64 pos = 0, i;
    for (i = 0; i < nn; i++) {
        pos = gallop_lb(hay, pos, hn, needle[i]);
        if (pos >= hn)
            break;
        if (hay[pos] == needle[i]) {
            if (pair_out) {
                pair_out[out] = pair;
                elem_out[out] = needle[i];
            }
            out++;
            pos++;
        }
    }
    return out;
}

/* counts[i] = |A(a_ids[i]) ∩ B(b_ids[i])| for i < k; returns the total.
 * With pair_out/elem_out non-NULL (elements mode) the hits are also
 * written in (pair, ascending element) order, at most `cap` of them;
 * sum_i min(|A_i|, |B_i|) suffices for sets.  `mark` holds `bound` zero
 * bytes and is zero again on a normal return.  Returns RANGE_ERROR when
 * a marked or probed value lies outside [0, bound) and CAPACITY_ERROR
 * when the hits would exceed `cap`; outputs and map contents are then
 * unspecified. */
i64 repro_csr_pairs(const i64 *a_xadj, const i64 *a_adj, const i64 *a_ids,
                    const i64 *b_xadj, const i64 *b_adj, const i64 *b_ids,
                    i64 k, i64 bound, uint8_t *mark,
                    i64 *counts, i64 *pair_out, i64 *elem_out, i64 cap)
{
    const uint64_t ubound = (uint64_t)bound;
    i64 i = 0, out = 0;
    while (i < k) {
        const i64 a_id = a_ids[i];
        const i64 *a = a_adj + a_xadj[a_id];
        const i64 an = a_xadj[a_id + 1] - a_xadj[a_id];
        int marked = 0;
        i64 j, x;
        for (j = i; j < k && a_ids[j] == a_id; j++) {
            const i64 *b = b_adj + b_xadj[b_ids[j]];
            const i64 bn = b_xadj[b_ids[j] + 1] - b_xadj[b_ids[j]];
            const i64 start = out;
            if (an <= 0 || bn <= 0) {
                counts[j] = 0;
                continue;
            }
            if (an * GALLOP_RATIO <= bn) {
                out = gallop_pair(a, an, b, bn, j, pair_out, elem_out, out);
            } else if (!marked && bn * GALLOP_RATIO <= an) {
                out = gallop_pair(b, bn, a, an, j, pair_out, elem_out, out);
            } else {
                if (!marked) {
                    for (x = 0; x < an; x++) {
                        if ((uint64_t)a[x] >= ubound)
                            return RANGE_ERROR;
                        mark[a[x]] = 1;
                    }
                    marked = 1;
                }
                if (pair_out) {
                    for (x = 0; x < bn; x++) {
                        const i64 v = b[x];
                        if ((uint64_t)v >= ubound)
                            return RANGE_ERROR;
                        if (mark[v]) {
                            /* A gallop emits at most min(|A|, |B|) hits
                             * even for multisets; a probe may not. */
                            if (out >= cap)
                                return CAPACITY_ERROR;
                            pair_out[out] = j;
                            elem_out[out] = v;
                            out++;
                        }
                    }
                } else {
                    for (x = 0; x < bn; x++) {
                        const i64 v = b[x];
                        if ((uint64_t)v >= ubound)
                            return RANGE_ERROR;
                        out += mark[v];
                    }
                }
            }
            counts[j] = out - start;
        }
        if (marked)
            for (x = 0; x < an; x++)
                mark[a[x]] = 0;
        i = j;
    }
    return out;
}
