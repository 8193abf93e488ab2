program fuzz
  input integer :: n = 4
  integer :: i0, i1, i2, i3, i4, i5, i6, i7, i8, i9, i10, i11, i12, i13, i14, i15, i16
  integer :: a0(n)
  integer :: a1(11)
  integer :: c0(0:n+1)
  do i0 = n, 2, -3
    call sub0(n, i0, c0)
    call sub0(n, i0, c0)
    do i1 = 5, 4, -1
      call sub0(n, i0, c0)
      if (i0 > 6) then
        c0(i0) = i1 + 5
        call sub0(n, -1, c0)
        a1(5) = i1 + 4
        a1(i1+9) = c0(3) + 1
        c0(i1-4) = a1(i0-1) + 0
      end if
      call sub0(n, 1, c0)
      call sub0(n, 1, c0)
      do i2 = 1, n, 3
        a0(3) = max(i1, 2)
      end do
      print i1
      if (i1 < 3) then
        call sub0(n, i1, c0)
      end if
    end do
    call sub0(n, 3, c0)
    call sub0(n, 3, c0)
    i3 = 0
    while (i3 < 1) do
      call sub0(n, 6, c0)
      i3 = i3 + 1
    end while
    if (i0 == 5) then
      do i4 = 1, i0
        a0(1) = -4
        if (i4 == 0) then
          exit
        end if
      end do
      a1(i0+2) = max(i0, 1)
      call sub0(n, -2, c0)
      call sub0(n, -2, c0)
      do i5 = 1, i0, 3
        a1(i5-5) = 8
        print 24
      end do
    end if
    do i6 = 1, 2
      c0(i6+2) = 15
      do i7 = 1, i0, 3
        call sub0(n, i7, c0)
        call sub0(n, i6, c0)
        call sub0(n, 7, c0)
        call sub0(n, 7, c0)
        call sub0(n, i0, c0)
        call sub0(n, i0, c0)
        c0(-1*i0+6) = c0(3) + 2
      end do
    end do
  end do
  do i8 = 0, n, 2
    do i9 = 1, i8
      i10 = 3
      while (i10 < 9) do
        a0(-1*i10+2) = max(i9, 3)
        i10 = i10 + 1
      end while
    end do
    do i11 = 1, 2
      if (i11 > 5) then
        a1(i11+7) = -2
        call sub0(n, i8, c0)
        a1(i8+4) = -3
        a0(4) = 12
        c0(5) = i8 + 1
      else
        call sub0(n, 7, c0)
        call sub0(n, i8, c0)
        call sub0(n, i8, c0)
        a1(i11+7) = a0(3) + 1
      end if
      a1(i11+5) = a0(3) + 2
    end do
  end do
  do i12 = 0, n, 3
    do i13 = i12, 1, -1
      i14 = 3
      while (i14 < 7) do
        a1(i14+2) = a1(7) + 3
        call sub0(n, 1, c0)
        call sub0(n, 1, c0)
        i14 = i14 + 1
      end while
      c0(i12) = max(i12, 1)
      call sub0(n, i12, c0)
      do i15 = -2, -1, -3
        print i12
        call sub0(n, i15, c0)
        a0(i15+3) = c0(i12+6) + 2
        call sub0(n, 9, c0)
        call sub0(n, 4, c0)
      end do
      c0(i12+1) = i13 * 2
      do i16 = 2, -3, -3
        call sub0(n, i12, c0)
      end do
    end do
    call sub0(n, 3, c0)
  end do
  print 42
end program
subroutine sub0(m, j, x)
  integer :: m, j, k
  integer :: x(0:m+1)
  do k = 1, m
    x(k-1) = k + j
    x(k-1) = x(k-1) + m
  end do
end subroutine
