package repro.core

import repro.graph.CSRGraph

/** Counters shared by all SSPPR solvers.
  *
  * `edgePushes` is the paper's "number of residue updates" (Figure 6): a push
  * on node v costs d_v updates (1 for a dead end, whose whole residue moves to
  * the source). `pushOps` counts push operations; `iterations` counts
  * synchronous sweeps (0 for purely queue-driven runs). `walks` counts the
  * α-walks of a walk phase, stored or live, and `walkSteps` the moves of its
  * live walks (a stored walk's moves were made when the index was built).
  * For now `pushOps` also includes the walks: the benchmark derives
  * SpeedPPR's walk count from how far `pushOps` grows past its push phase.
  */
final class Stats {
  var edgePushes: Long = 0L
  var pushOps: Long = 0L
  var iterations: Int = 0
  var walks: Long = 0L
  var walkSteps: Long = 0L
  var millis: Long = 0L
  override def toString: String =
    s"Stats(edgePushes=$edgePushes, pushOps=$pushOps, iterations=$iterations, " +
      s"walks=$walks, walkSteps=$walkSteps, millis=$millis)"
}

/** Result of a single-source PPR computation.
  *
  * @param pi      estimate π̂(s, ·); an underestimate for push/power methods
  * @param residue remaining residue r(s, ·) (all zeros for Monte-Carlo methods)
  * @param stats   work counters
  */
final case class PPRResult(pi: Array[Double], residue: Array[Double], stats: Stats) {
  def l1Residue: Double = { var t = 0.0; var i = 0; while (i < residue.length) { t += residue(i); i += 1 }; t }
  def l1Pi: Double = { var t = 0.0; var i = 0; while (i < pi.length) { t += pi(i); i += 1 }; t }
}

/** Optional convergence trace: (cumulative edge pushes, current ℓ1 residue).
  * Used by the Figure-6-style bench; solvers call `record` at checkpoints.
  */
final class Trace {
  val points = scala.collection.mutable.ArrayBuffer.empty[(Long, Double)]
  def record(edgePushes: Long, rsum: Double): Unit = points += ((edgePushes, rsum))
}

object Common {
  /** Default teleport probability used throughout the paper. */
  val DefaultAlpha: Double = 0.2

  /** Residues below this are treated as zero in activity checks. A dead end
    * has activity threshold d_v·r_max = 0, and multiplying the smallest
    * denormal by (1−α) rounds back to itself — without this floor a
    * dead-end's residue never reaches 0 and push loops livelock.
    */
  val TinyResidue: Double = 1e-300

  /** Activity test of the paper (r > d_v·r_max) with the denormal floor. */
  @inline def isActive(r: Double, deg: Int, rMax: Double): Boolean =
    r > TinyResidue && r > deg * rMax

  /** High-precision ℓ1 threshold: λ = min(1/m, 1e-8) (§8.1). */
  def defaultLambda(m: Long): Double = math.min(1.0 / m, 1e-8)

  /** ℓ1 distance between two vectors. */
  def l1Diff(a: Array[Double], b: Array[Double]): Double = {
    require(a.length == b.length)
    var t = 0.0; var i = 0
    while (i < a.length) { t += math.abs(a(i) - b(i)); i += 1 }
    t
  }

  /** Fail fast on the inputs of an approximate query: 0 < ε < 1,
    * 0 < α < 1, s ∈ [0, n), and an index (if any) built for a graph of g's
    * size. Throws IllegalArgumentException naming the bad parameter.
    */
  def requireApprox(g: CSRGraph, s: Int, eps: Double, alpha: Double,
                    index: Option[WalkIndex] = None): Unit = {
    requireIn01("eps", eps)
    requireIn01("alpha", alpha)
    require(s >= 0 && s < g.n, s"source s = $s must lie in [0, ${g.n})")
    index.foreach(i => require(i.n == g.n, s"index covers ${i.n} nodes, graph has ${g.n}"))
  }

  def requireIn01(name: String, x: Double): Unit =
    require(x > 0.0 && x < 1.0, s"$name = $x must lie in (0, 1)")

  /** Chernoff walk count W from Eq. (12), with μ = 1/n by convention. */
  def walkCountW(n: Int, eps: Double, mu: Double): Double =
    2.0 * (2.0 * eps / 3.0 + 2.0) * math.log(n) / (eps * eps * mu)
}
