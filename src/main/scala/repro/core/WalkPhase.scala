package repro.core

import java.util.SplittableRandom
import repro.graph.CSRGraph

/** The walk phase (§6.1 Eq. 13-14, Algorithm 4 phase 2) shared by FORA(+),
  * ResAcc, SpeedPPR(±Index) and plain Monte Carlo.
  *
  * Each node v with residue r(v) > 0 gets W_v = ⌈r(v)·W⌉ α-walks, each adding
  * r(v)/W_v to the node it stops at. With an index, the first `countOf(v)`
  * of them are stored endpoints, credited directly; a stored dead-end marker
  * finishes live from the source s, and walks beyond the stored ones (FORA+
  * top-ups) run live from v.
  *
  * Live walks run in [[Lanes]] interleaved lanes: each pass moves every lane
  * one step, so the lanes' random reads of the edge array do not depend on
  * each other and their cache misses overlap. A lane whose walk stops takes
  * the next pending walk. All randomness comes from one
  * `SplittableRandom(seed)` (no atomic update per draw, unlike
  * `java.util.Random`), so π is a pure function of the seed.
  *
  * The residue vector is consumed (left all zero). `stats.walks` counts every
  * walk, stored or live; `stats.walkSteps` the moves of live walks.
  */
object WalkPhase {

  /** Walks in flight. On orkut-lite one lane (walks run one after another)
    * took about twice as long as 16; 4 to 32 lanes measured alike.
    */
  private[core] val Lanes = 16

  def run(g: CSRGraph, s: Int, pi: Array[Double], r: Array[Double], w: Long,
          index: Option[WalkIndex], alpha: Double, seed: Long, stats: Stats): Unit = {
    val rng = new SplittableRandom(seed)
    val lanes = new Pending(g, s, pi, r, w, index.orNull)
    val at = lanes.at
    val weight = lanes.weight
    var live = 0
    while (live < Lanes && lanes.fill(live)) live += 1
    var steps = 0L
    while (live > 0) {
      var j = 0
      while (j < live) {
        val u = at(j)
        if (rng.nextDouble() < alpha) {
          pi(u) += weight(j)
          if (lanes.fill(j)) j += 1
          else { live -= 1; at(j) = at(live); weight(j) = weight(live) }
        } else {
          val d = g.outDegree(u)
          at(j) = if (d == 0) s else g.edges(g.offset(u) + rng.nextInt(d))
          steps += 1
          j += 1
        }
      }
    }
    stats.walks += lanes.walks
    stats.walkSteps += steps
    stats.pushOps += lanes.walks
  }

  /** The walks not yet started, in node order. On reaching a node v it
    * credits v's stored endpoints; `fill(j)` then puts v's next live walk
    * (dead-end markers from s, then top-ups from v) into lane j, and returns
    * false once no walk is left.
    */
  private final class Pending(g: CSRGraph, s: Int, pi: Array[Double], r: Array[Double],
                              w: Long, idx: WalkIndex) {
    val at = new Array[Int](Lanes)
    val weight = new Array[Double](Lanes)
    var walks = 0L
    private var v = -1
    private var markers, topUps = 0L // live walks left at v
    private var inc = 0.0

    def fill(j: Int): Boolean = {
      while (markers == 0 && topUps == 0) {
        v += 1
        if (v >= g.n) return false
        val rv = r(v)
        if (rv > 0.0) {
          r(v) = 0.0
          val wv = math.ceil(rv * w).toLong
          inc = rv / wv
          walks += wv
          topUps = wv
          if (idx != null) {
            var i = idx.offsets(v)
            val end = i + math.min(wv, idx.countOf(v))
            topUps -= end - i
            while (i < end) {
              val e = idx.endpoints(i.toInt)
              if (e >= 0) pi(e) += inc else markers += 1
              i += 1
            }
          }
        }
      }
      if (markers > 0) { markers -= 1; at(j) = s } else { topUps -= 1; at(j) = v }
      weight(j) = inc
      true
    }
  }
}
