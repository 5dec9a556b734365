"""Orbit kernels of the brute-force oracle, in pure Python.

Both kernels scan their states in ascending index order and close each
unvisited state under a fixed list of maps, so every orbit is reported by
its least index, together with its size.
"""

#: the one implementation; benchmark reports record it
BACKEND = "pure"


def orbit_scan(t_flat, ngen, size):
    """Orbits of range(size) under ngen maps stored back to back in t_flat:
    map k sends e to t_flat[k*size + e]."""
    visited = bytearray(size)
    reps = []
    sizes = []
    offs = [k * size for k in range(ngen)]
    for e0 in range(size):
        if visited[e0]:
            continue
        visited[e0] = 1
        stack = [e0]
        cnt = 0
        while stack:
            e = stack.pop()
            cnt += 1
            for off in offs:
                e2 = t_flat[off + e]
                if not visited[e2]:
                    visited[e2] = 1
                    stack.append(e2)
        reps.append(e0)
        sizes.append(cnt)
    return reps, sizes


def affine_orbit_scan(conj, points, sub_of, labels, cosets, mg, mv):
    """Classes of V x| G as orbits of translation-quotient states.

    The state e = g*mv + c stands for the coset c + [g,V] of the subspace
    [g,V] = (g-1)V, c being the coset's least member.  Element g has
    subspace sub_of[g]; labels[s][v] is the least member of v + s and
    cosets[s] lists those least members in ascending order.  Generator k
    of G sends (g, c) to (g2, labels[sub_of[g2]][points[k*mv + c]]) with
    g2 = conj[k*mg + g].  An orbit of states is one class of V x| G with
    |[g,V]| elements per state, and its first state g*mv + c is the least
    index g*|V| + v of the class.  Returns (those least indices, class
    sizes).
    """
    label_of = [labels[s] for s in sub_of]
    gens = [(k * mg, k * mv) for k in range(len(points) // mv)]
    visited = bytearray(mg * mv)
    reps = []
    sizes = []
    for g0 in range(mg):
        reps0 = cosets[sub_of[g0]]
        span = mv // len(reps0)
        base = g0 * mv
        for c0 in reps0:
            e0 = base + c0
            if visited[e0]:
                continue
            visited[e0] = 1
            stack = [e0]
            cnt = 0
            while stack:
                g, c = divmod(stack.pop(), mv)
                cnt += 1
                for goff, voff in gens:
                    g2 = conj[goff + g]
                    e2 = g2 * mv + label_of[g2][points[voff + c]]
                    if not visited[e2]:
                        visited[e2] = 1
                        stack.append(e2)
            reps.append(e0)
            sizes.append(cnt * span)
    return reps, sizes
