package repro.core

import java.util.random.RandomGenerator
import repro.graph.CSRGraph

/** Single α-random walks and the plain Monte-Carlo Approx-SSPPR baseline
  * (§6.1): W independent walks from s; π̂(s,v) = f(s,v)/W.
  */
object MonteCarlo {

  /** Walk one α-random walk and return the node it stops at.
    *
    * Semantics per §2: at the current node, stop with probability α; else
    * move uniformly to an out-neighbor, or jump back to the *query source* s
    * at a dead end. `start` may differ from `s` (FORA/SpeedPPR phase 2).
    * The solvers' walk phases run in [[WalkPhase]]; this single walk serves
    * `WalkIndex.endpoint` and the tests.
    */
  def walk(g: CSRGraph, s: Int, start: Int, alpha: Double, rng: RandomGenerator): Int =
    walkCounted(g, s, start, alpha, rng, new Array[Long](1))

  /** [[walk]] that also adds its number of moves to `steps(0)`. */
  def walkCounted(g: CSRGraph, s: Int, start: Int, alpha: Double,
                  rng: RandomGenerator, steps: Array[Long]): Int = {
    var v = start
    while (rng.nextDouble() >= alpha) {
      val d = g.outDegree(v)
      v = if (d == 0) s else g.edges(g.offset(v) + rng.nextInt(d))
      steps(0) += 1
    }
    v
  }

  /** Plain Monte-Carlo Approx-SSPPR: W from Eq. (12) with μ = 1/n. */
  def run(g: CSRGraph, s: Int, eps: Double,
          alpha: Double = Common.DefaultAlpha, mu: Double = Double.NaN,
          seed: Long = 1L): PPRResult = {
    Common.requireApprox(g, s, eps, alpha)
    val t0 = System.nanoTime()
    val n = g.n
    val w = math.ceil(Common.walkCountW(n, eps, if (mu.isNaN) 1.0 / n else mu)).toLong
    val pi = new Array[Double](n)
    val r = new Array[Double](n)
    r(s) = 1.0 // W walks of weight 1/W from s
    val stats = new Stats
    WalkPhase.run(g, s, pi, r, w, None, alpha, seed, stats)
    stats.edgePushes = stats.walkSteps // walk steps are the unit of work here
    stats.millis = (System.nanoTime() - t0) / 1000000L
    PPRResult(pi, r, stats)
  }
}
