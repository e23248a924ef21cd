package perfbench

import java.util.SplittableRandom
import org.apache.spark.sql.{DataFrame, SparkSession}
import scala.collection.mutable

/** Benchmark-owned inputs, drawn on the driver from one seeded generator so
  * the same workload seed gives the same edges and profile on any core
  * count or partitioning.
  *
  * Edges follow the shape the paper's datasets have: power-skewed sources
  * (low ids are hubs), mildly skewed destinations, and raw weight
  * `1 - e^{-a/mu}` for an interaction count `a` that is larger on hub
  * edges. The profile holds initial opinions and stubbornness spread evenly
  * over (0, 1), with each candidate's opinions shifted by a fixed offset.
  */
object Inputs {

  /** @param offsets added to each candidate's initial opinions (clamped to
    *                [0, 1]); a positive offset is a head start on the target
    */
  final case class Spec(n: Int, m: Int, r: Int, t: Int, offsets: Seq[Double]) {
    require(offsets.size == r, s"need one offset per candidate, got ${offsets.size} for r=$r")
  }

  final case class Data(n: Int, src: Array[Long], dst: Array[Long], w: Array[Double],
                        b0: Array[Array[Double]], d: Array[Array[Double]]) {

    def edgeDf(spark: SparkSession): DataFrame = {
      import spark.implicits._
      src.indices.map(i => (src(i), dst(i), w(i))).toDF("src", "dst", "w")
    }

    def profileDf(spark: SparkSession): DataFrame = {
      import spark.implicits._
      (for (v <- 0 until n; c <- b0.indices) yield (v.toLong, c, b0(c)(v), d(c)(v)))
        .toDF("node", "cand", "b0", "d")
    }

    /** Order-sensitive FNV-1a hash over every generated value. */
    def checksum: Long = {
      var h = 0xcbf29ce484222325L
      def mix(x: Long): Unit = { h ^= x; h *= 0x100000001b3L }
      src.indices.foreach { i =>
        mix(src(i)); mix(dst(i)); mix(java.lang.Double.doubleToLongBits(w(i)))
      }
      for (c <- b0.indices; v <- 0 until n) {
        mix(java.lang.Double.doubleToLongBits(b0(c)(v)))
        mix(java.lang.Double.doubleToLongBits(d(c)(v)))
      }
      h
    }
  }

  private val SrcSkew = 2.5
  private val DstSkew = 1.3
  private val Mu = 10.0
  /** Candidate edges drawn per requested edge, before dedup. */
  private val Oversample = 3

  /** Sources, opinions and stubbornness are stratified: the seed changes
    * which node gets which draw, not the empirical distribution. The
    * out-degree profile, total initial opinion and the gap between
    * candidates, and hence k* and vote shares, then vary little from seed
    * to seed, while the wiring still does.
    */
  def generate(spec: Spec, seed: Long): Data = {
    val rng = new SplittableRandom(seed)
    val n = spec.n
    val draws = Oversample * spec.m
    val seen = mutable.HashSet.empty[Long]
    val cand = mutable.ArrayBuffer.empty[(Int, Int, Double)]
    for (i <- 0 until draws) {
      val q = (i + rng.nextDouble()) / draws
      val s = math.min(n - 1, (math.pow(q, SrcSkew) * n).toInt)
      val t = math.min(n - 1, (math.pow(rng.nextDouble(), DstSkew) * n).toInt)
      val u = rng.nextDouble()
      if (s != t && seen.add(s.toLong * n + t)) cand += ((s, t, u))
    }
    require(cand.size >= spec.m, s"drew ${cand.size} distinct edges on $n nodes, need ${spec.m}")
    val kept = shuffled(cand.toArray, rng).take(spec.m).sortBy(e => (e._1, e._2))
    val src = kept.map(_._1.toLong)
    val dst = kept.map(_._2.toLong)
    val w = kept.map { case (s, _, u) =>
      val a = 1.0 + u * (4.0 + 15.0 * math.pow(1.0 - s.toDouble / n, 8.0))
      1.0 - math.exp(-a / Mu)
    }
    // A user's base opinion and stubbornness are shared by all candidates;
    // candidates differ by their offsets only.
    val grid = Array.tabulate(n)(i => (i + 0.5) / n)
    val base = shuffled(grid, rng)
    val stub = shuffled(grid, rng)
    val b0 = Array.tabulate(spec.r, n)((c, v) => math.max(0.0, math.min(1.0, base(v) + spec.offsets(c))))
    val d = Array.fill(spec.r)(stub)
    Data(n, src, dst, w, b0, d)
  }

  private def shuffled[A: scala.reflect.ClassTag](xs: Array[A], rng: SplittableRandom): Array[A] = {
    val a = xs.clone()
    for (i <- a.length - 1 to 1 by -1) {
      val j = rng.nextInt(i + 1)
      val tmp = a(i); a(i) = a(j); a(j) = tmp
    }
    a
  }
}
