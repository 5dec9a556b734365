"""Orbit kernels of the brute-force oracle, in pure Python.

Both kernels scan their states in ascending index order and close each
unreached state under a fixed list of maps, so every orbit is reported by
its least index, together with its size.  walk serves every oracle route;
affine_orbit_scan keeps a loop of its own, as its states are pairs whose
images are computed, not read from one table.
"""

from array import array

#: the one implementation; benchmark reports record it
BACKEND = "pure"


def walk(table, ngen, size):
    """Orbits of range(size) under ngen maps stored back to back in table:
    map k sends x to table[k*size + x].

    Each orbit is closed breadth-first from its least state.  Returns the
    least state and size of each orbit, every state in the order reached,
    orbit after orbit, and the spanning tree: for each state y the index
    k*size + x through which it was first reached (table[tree[y]] == y, x
    reached before y), or -1 for a least state; both as array('i')."""
    offs = [k * size for k in range(ngen)]
    seen = bytearray(size)
    tree = array("i", [-1]) * size
    order = array("i")
    reps, sizes = [], []
    with memoryview(tree) as parent:  # faster item stores than the array
        x0 = seen.find(0)
        while x0 >= 0:
            seen[x0] = 1
            queue = [x0]
            for x in queue:  # the queue grows while it is read
                for off in offs:
                    e = off + x
                    y = table[e]
                    if not seen[y]:
                        seen[y] = 1
                        parent[y] = e
                        queue.append(y)
            reps.append(x0)
            sizes.append(len(queue))
            order.fromlist(queue)
            x0 = seen.find(0, x0 + 1)
    return reps, sizes, order, tree


def orbit_scan(t_flat, ngen, size):
    """The class scan of a matrix group: walk over its conjugation tables."""
    return walk(t_flat, ngen, size)


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
