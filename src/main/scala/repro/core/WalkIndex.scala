package repro.core

import java.util.SplittableRandom
import java.util.random.RandomGenerator
import repro.graph.CSRGraph

/** Pre-generated α-random-walk endpoints — the index structure behind FORA+
  * and SpeedPPR-Index (§6).
  *
  * For each node v, `countOf(v)` walk results from v are stored contiguously.
  * Because the dead-end→source redirect depends on the (unknown at build
  * time) query source, a walk that reaches a dead end *without stopping* is
  * stored as the marker `~w` (bitwise complement of the dead end's id); at
  * query time the consumer finishes such a walk live from the query source —
  * this keeps index semantics exactly equal to live-walk semantics while the
  * index stays source- and ε-independent.
  *
  * Index size accounting (Table 2): 4 bytes per stored endpoint + 8 bytes
  * per node for the offset array.
  */
final class WalkIndex(val offsets: Array[Long], val endpoints: Array[Int]) {
  def n: Int = offsets.length - 1
  def countOf(v: Int): Long = offsets(v + 1) - offsets(v)
  def totalWalks: Long = endpoints.length.toLong
  def sizeBytes: Long = 4L * endpoints.length + 8L * offsets.length

  /** Resolve the k-th stored walk of v (k < countOf(v)) for query source s:
    * finishes marker walks live from s with `rng`.
    */
  def endpoint(v: Int, k: Long, g: CSRGraph, s: Int, alpha: Double, rng: RandomGenerator): Int = {
    val e = endpoints((offsets(v) + k).toInt)
    if (e >= 0) e else MonteCarlo.walk(g, s, s, alpha, rng)
  }
}

object WalkIndex {

  /** Build an index with `walksFor(v)` stored walks per node.
    *
    *  - FORA+ uses K_v = ⌈d_v·√(W/m)⌉ + 1 (ε-dependent through W).
    *  - SpeedPPR-Index uses exactly d_v (ε-independent, total ≤ m).
    */
  def build(g: CSRGraph, walksFor: Int => Int,
            alpha: Double = Common.DefaultAlpha, seed: Long = 99L): WalkIndex = {
    Common.requireIn01("alpha", alpha)
    val offsets = new Array[Long](g.n + 1)
    var v = 0
    while (v < g.n) { offsets(v + 1) = offsets(v) + math.max(0, walksFor(v)); v += 1 }
    val total = offsets(g.n)
    require(total <= Int.MaxValue, s"index too large: $total walks")
    val endpoints = new Array[Int](total.toInt)
    // WalkPhase's interleaved lanes; each lane carries the slot its walk
    // fills and records there the stop node, or `~d` on leaving dead end d.
    val rng = new SplittableRandom(seed)
    val at = new Array[Int](WalkPhase.Lanes)
    val slot = new Array[Int](WalkPhase.Lanes)
    var next, live = 0 // next: the next slot to start; v: its start node
    v = 0
    def fill(j: Int): Boolean = next < total && {
      while (offsets(v + 1) <= next) v += 1
      at(j) = v; slot(j) = next; next += 1
      true
    }
    while (live < at.length && fill(live)) live += 1
    while (live > 0) {
      var j = 0
      while (j < live) {
        val u = at(j)
        val stop = rng.nextDouble() < alpha
        val d = g.outDegree(u)
        if (stop || d == 0) {
          endpoints(slot(j)) = if (stop) u else ~u
          if (fill(j)) j += 1 else { live -= 1; at(j) = at(live); slot(j) = slot(live) }
        } else {
          at(j) = g.edges(g.offset(u) + rng.nextInt(d))
          j += 1
        }
      }
    }
    new WalkIndex(offsets, endpoints)
  }

  /** FORA+ index for relative error ε (μ = 1/n): K_v = ⌈d_v·√(W/m)⌉ + 1. */
  def buildFora(g: CSRGraph, eps: Double,
                alpha: Double = Common.DefaultAlpha, seed: Long = 99L): WalkIndex = {
    Common.requireIn01("eps", eps)
    val w = Common.walkCountW(g.n, eps, 1.0 / g.n)
    val scale = math.sqrt(w / g.m)
    build(g, v => math.ceil(g.outDegree(v) * scale).toInt + 1, alpha, seed)
  }

  /** SpeedPPR index: exactly d_v walks per node, at most m in total,
    * independent of ε.
    */
  def buildSpeedPPR(g: CSRGraph,
                    alpha: Double = Common.DefaultAlpha, seed: Long = 99L): WalkIndex =
    build(g, v => g.outDegree(v), alpha, seed)
}
