package repro.core

import org.apache.spark.HashPartitioner
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** One diffusion key's dense FJ inputs over nodes `0 until n`: initial
  * opinions, stubbornness, and which nodes have a profile row at all.
  */
final case class KeyProfile(b0: Array[Double], d: Array[Double], present: Array[Boolean]) {

  /** A copy with `b0 = d = 1` at every seed that has a profile row (§II-C). */
  def seeded(seeds: Iterable[Long]): KeyProfile = {
    val b = b0.clone()
    val dd = d.clone()
    for (s <- seeds if s >= 0 && s < b.length && present(s.toInt)) {
      b(s.toInt) = 1.0
      dd(s.toInt) = 1.0
    }
    KeyProfile(b, dd, present)
  }
}

object KeyProfile {

  /** Profile rows `(node, b0, d)` of one key into arrays of length `n`;
    * rows with node ids outside `0 until n` are dropped.
    */
  def of(rows: Iterator[(Long, Double, Double)], n: Int): KeyProfile = {
    val p = KeyProfile(new Array[Double](n), new Array[Double](n), new Array[Boolean](n))
    for ((v, b0, d) <- rows if v >= 0 && v < n) {
      p.b0(v.toInt) = b0
      p.d(v.toInt) = d
      p.present(v.toInt) = true
    }
    p
  }

  /** Collect a one-key profile `(node, b0, d)` (one job); see [[of]]. */
  def collect(profile: DataFrame, n: Int): KeyProfile =
    of(profile.select(col("node").cast("long"), col("b0").cast("double"), col("d").cast("double"))
      .collect().iterator.map(r => (r.getLong(0), r.getDouble(1), r.getDouble(2))), n)
}

/** Exact opinion diffusion under the Friedkin–Johnsen model (Eq 2 of the
  * paper); DeGroot (Eq 1) is the special case of all-zero stubbornness.
  *
  * Opinions, stubbornness and initial opinions are DataFrames keyed by
  * `(node, cand)`. The graph is a broadcast [[Csr]]; a diffusion is a set
  * of independent keys (a candidate, or a greedy scenario), and each key
  * runs all `t` FJ steps on dense arrays inside one task.
  *
  * Seeding a node `s` for candidate `q` sets `b0 = 1` and `d = 1` for
  * `(s, q)` (§II-C), freezing its opinion about `q` at 1.
  */
object OpinionDiffusion {

  /** Profile `(node, cand, b0, d)` with seed set `seeds` applied for
    * candidate `q`: seeded rows get `b0 = 1, d = 1`.
    */
  def applySeeds(profile: DataFrame, q: Int, seeds: Seq[Long]): DataFrame = {
    if (seeds.isEmpty) profile
    else {
      val isSeed = col("cand") === q && col("node").isInCollection(seeds)
      profile.select(
        col("node"), col("cand"),
        when(isSeed, lit(1.0)).otherwise(col("b0")).as("b0"),
        when(isSeed, lit(1.0)).otherwise(col("d")).as("d"),
      )
    }
  }

  /** `t` FJ steps of one key: `b(v) <- (1 - d(v)) * sum_u w(u,v) b(u) + d(v) b0(v)`.
    * A node is alive at step `s + 1` iff it has a profile row and an
    * in-neighbour alive at step `s` — the inner-join semantics of the
    * edge-list form of Eq 2. Returns the horizon opinions and alive mask.
    */
  private def fj(g: Csr, p: KeyProfile, t: Int): (Array[Double], Array[Boolean]) = {
    var b = p.b0
    var alive = p.present
    for (_ <- 1 to t) {
      val nb = new Array[Double](g.n)
      val na = new Array[Boolean](g.n)
      for (v <- 0 until g.n if p.present(v)) {
        var sum = 0.0
        var any = false
        var e = g.inOff(v)
        while (e < g.inOff(v + 1)) {
          val u = g.inSrc(e)
          if (alive(u)) { sum += b(u) * g.inW(e); any = true }
          e += 1
        }
        if (any) {
          nb(v) = (1.0 - p.d(v)) * sum + p.d(v) * p.b0(v)
          na(v) = true
        }
      }
      b = nb
      alive = na
    }
    (b, alive)
  }

  /** Runs [[fj]] for every key, inside the task that yields the key with
    * its profile, and emits `(key, node, b)` for every alive node.
    */
  private def run[K](g: Broadcast[Csr], keyed: RDD[(K, KeyProfile)], t: Int): RDD[(K, Long, Double)] = {
    require(t >= 0, s"time horizon must be non-negative, got $t")
    keyed.flatMap { case (key, p) =>
      val (b, alive) = fj(g.value, p, t)
      b.indices.iterator.filter(alive).map(v => (key, v.toLong, b(v)))
    }
  }

  /** Exact opinions `(node, cand, b)` of every user about every candidate at
    * horizon `t`, given normalized edges and profile `(node, cand, b0, d)`.
    * Collects and broadcasts the graph; see the overload for a prepared one.
    */
  def diffuse(edges: DataFrame, profile: DataFrame, t: Int): DataFrame =
    diffuse(Csr.broadcast(edges, 0), profile, t)

  /** [[diffuse]] over a broadcast graph: one key per candidate, the profile
    * rows grouped by `cand` with one shuffle.
    */
  def diffuse(g: Broadcast[Csr], profile: DataFrame, t: Int): DataFrame = {
    val spark = profile.sparkSession
    val keyed = profile
      .select(col("node").cast("long"), col("cand").cast("int"),
        col("b0").cast("double"), col("d").cast("double"))
      .rdd
      .map(r => (r.getInt(1), (r.getLong(0), r.getDouble(2), r.getDouble(3))))
      .groupByKey(new HashPartitioner(spark.sparkContext.defaultParallelism))
      .mapValues(rows => KeyProfile.of(rows.iterator, g.value.n))
    val out = run(g, keyed, t).map { case (cand, v, b) => Row(v, cand, b) }
    spark.createDataFrame(out, StructType(Seq(
      StructField("node", LongType, nullable = false),
      StructField("cand", IntegerType, nullable = false),
      StructField("b", DoubleType, nullable = false))))
  }

  /** Scenario-vectorized diffusion for greedy marginal-gain evaluation:
    * each scenario is "add candidate seed `scen` on top of the already
    * applied base profile", and is one key of the kernel.
    *
    * @param targetProfile `(node, b0, d)` for the target candidate only,
    *                      with the current seed set already applied
    * @param scenarios     single-column `(scen)` of candidate seed nodes
    * @return `(scen, node, b)` target-candidate opinions at horizon `t`
    */
  def diffuseScenarios(edges: DataFrame, targetProfile: DataFrame,
                       scenarios: DataFrame, t: Int): DataFrame = {
    val g = Csr.broadcast(edges, 0)
    diffuseScenarios(g, KeyProfile.collect(targetProfile, g.value.n), scenarios, t)
  }

  /** [[diffuseScenarios]] over a broadcast graph and a collected target
    * profile: the scenario ids are mapped in place, with no shuffle.
    */
  def diffuseScenarios(g: Broadcast[Csr], target: KeyProfile,
                       scenarios: DataFrame, t: Int): DataFrame = {
    val spark = scenarios.sparkSession
    val base = spark.sparkContext.broadcast(target)
    val keyed = scenarios.select(col("scen").cast("long")).rdd
      .map { r => val s = r.getLong(0); (s, base.value.seeded(Seq(s))) }
    val out = run(g, keyed, t).map { case (s, v, b) => Row(s, v, b) }
    spark.createDataFrame(out, StructType(Seq(
      StructField("scen", LongType, nullable = false),
      StructField("node", LongType, nullable = false),
      StructField("b", DoubleType, nullable = false))))
  }
}
